"""Driver-side workaround for a Ray Data wart: empty shuffle outputs
carry broken schemas.

Two concrete failure shapes, both from 0-row blocks:

* `ArrowBlockAccessor.merge_sorted_blocks` (sort reduce) drops zero-row
  input blocks and, when a reduce range is entirely empty, returns
  `_empty_table()` — a ZERO-COLUMN table — even though every typed
  empty block fed to it carried the stage schema.  The streaming
  executor then logs "Operator produced a RefBundle with a different
  schema ... new schema: ." once per operator and schema dedup is
  defeated for the stream.
* The hash-shuffle aggregate emits empty partitions as zero-column
  pandas frames, and map/project operators SKIP 0-row blocks rather
  than transform them, so stale pre-projection columns survive in
  empty blocks.  Either shape poisons a downstream pyarrow hash join:
  acero raises "No match or multiple matches for key field reference"
  when one input partition block lacks the key column (observed on the
  600k-doc minhash forced-join probe).

Fix: in the streaming executor's `add_output` hook
(`dedupe_schemas_with_validation` — the single place every operator
output bundle passes through on the driver), REPLACE each 0-row block
with a freshly `ray.put` typed empty block built from the stream (or
bundle) schema.  Replacement — never removal: an earlier variant that
DROPPED 0-row blocks silently lost whole groups out of the sort-based
aggregate (bundle structure matters to the executor), so block counts
and bundle boundaries are preserved exactly.  A 0-row block carries no
data, so swapping its payload is semantically invisible; it only
normalizes the schema the downstream operator will observe.  Real
schema divergences between non-empty blocks still warn exactly as
before.

Applied on package import; the hook runs only in the driver process, so
no worker-side import ordering matters.  It patches PRIVATE executor
internals, so it only applies on the Ray versions in `_TESTED_RAY`; any
other version runs unpatched and gets one warning.  Remove when Ray's
shuffle reduces preserve typed schemas for empty outputs.
"""

from __future__ import annotations

#: Ray releases the patched internals were read and tested against.
_TESTED_RAY = {"2.49.2"}

#: How often the hooks fired in this process: 0-row blocks replaced by
#: typed empty blocks, all-empty schema-less bundles dropped, and hook
#: exceptions (logged at debug level, the bundle passed on unpatched).
FIRES = {"replaced": 0, "dropped": 0, "errors": 0}


def _typed_empty_block(schema):
    """Build a 0-row block matching ``schema`` (a ray.data Schema
    wrapper or a raw pyarrow schema); None if not constructible."""
    import pyarrow as pa

    base = getattr(schema, "base_schema", schema)
    if isinstance(base, pa.Schema):
        return base.empty_table()
    # PandasBlockSchema look-alike: parallel names/types lists
    names = getattr(base, "names", None)
    types = getattr(base, "types", None)
    if names is not None and types is not None:
        import pandas as pd

        return pd.DataFrame({n: pd.Series(dtype=t) for n, t in zip(names, types)})
    return None


def apply() -> None:
    import logging
    import warnings

    import ray

    if ray.__version__ not in _TESTED_RAY:
        warnings.warn(
            f"indexer_ray: Ray {ray.__version__} is not a tested version "
            f"({', '.join(sorted(_TESTED_RAY))}); the empty-block schema patch "
            "is not applied",
            stacklevel=2,
        )
        return
    try:
        from ray.data._internal.execution import streaming_executor_state as _ses
        from ray.data._internal.execution.interfaces import RefBundle
        from ray.data.block import BlockAccessor, _is_empty_schema
    except Exception:  # Ray internals moved — fail open, warnings return
        return
    if getattr(_ses.dedupe_schemas_with_validation, "_indexer_ray_patch", False):
        return

    _orig = _ses.dedupe_schemas_with_validation

    def _patched(old_schema, bundle, warn=True, enforce_schemas=False):
        try:
            # num_rows is Optional: None means unknown and must be
            # left alone; only blocks KNOWN empty are replaced
            if any(m.num_rows == 0 for m in bundle.metadata):
                # The STREAM schema is the trustworthy one: a bundle
                # whose only block was skipped by a projection declares
                # the stale PRE-projection schema, so bundle.schema can
                # lie; old_schema was set by real (non-empty) bundles.
                target = None
                if not _is_empty_schema(old_schema):
                    target = old_schema
                elif not _is_empty_schema(bundle.schema):
                    target = bundle.schema
                repl = _typed_empty_block(target) if target is not None else None
                if repl is not None:
                    repl_meta = BlockAccessor.for_block(repl).get_metadata()
                    blocks = tuple(
                        (ray.put(repl), repl_meta) if m.num_rows == 0 else (ref, m)
                        for ref, m in bundle.blocks
                    )
                    FIRES["replaced"] += sum(m.num_rows == 0 for m in bundle.metadata)
                    # a bundle with NO data rows has no schema
                    # information — adopt the target its blocks now
                    # carry (also silences the false divergence warn);
                    # any non-empty block keeps the declared schema
                    all_empty = all(m.num_rows == 0 for m in bundle.metadata)
                    bundle = RefBundle(
                        blocks,
                        schema=target if all_empty else bundle.schema,
                        owns_blocks=bundle.owns_blocks,
                        output_split_idx=bundle.output_split_idx,
                    )
        except Exception:
            FIRES["errors"] += 1
            logging.getLogger(__name__).debug(
                "raypatch empty-block replacement failed", exc_info=True
            )
        return _orig(old_schema, bundle, warn=warn, enforce_schemas=enforce_schemas)

    _patched._indexer_ray_patch = True  # idempotence marker
    _ses.dedupe_schemas_with_validation = _patched

    # Second half: a zero-column all-empty bundle that arrives BEFORE
    # any real bundle (stream schema still unknown) cannot be typed by
    # the replacement above — and sort reduces tend to finish their
    # empty ranges first, so this ordering is common.  Such a bundle
    # carries zero information (no rows, no schema); drop it from the
    # output queue entirely, keeping only the task-completion
    # accounting.  Typed empty bundles are NOT dropped — they define
    # the stream schema for empty results (schema(), write of an empty
    # dataset).  Blockless bundles must never be emitted instead (an
    # earlier variant tried; the executor loses data), hence whole-
    # bundle drop.
    if getattr(_ses.OpState.add_output, "_indexer_ray_patch", False):
        return
    _orig_add_output = _ses.OpState.add_output

    def _patched_add_output(self, ref):
        try:
            if (
                ref.blocks
                and all(m.num_rows == 0 for m in ref.metadata)
                and _is_empty_schema(ref.schema)
                and _is_empty_schema(self._schema)
            ):
                self.num_completed_tasks += 1
                if self.progress_bar:
                    self.progress_bar.update(0, self.op.num_output_rows_total())
                FIRES["dropped"] += 1
                return
        except Exception:
            FIRES["errors"] += 1
            logging.getLogger(__name__).debug(
                "raypatch empty-bundle drop failed", exc_info=True
            )
        return _orig_add_output(self, ref)

    _patched_add_output._indexer_ray_patch = True
    _ses.OpState.add_output = _patched_add_output
