"""map_batches stage bodies, codecs and the routed shuffle (pure functions /
callable classes — no Ray session management here)."""
