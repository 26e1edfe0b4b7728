"""Time `import ptwell` in this fresh interpreter.

Prints the import's raw and speed-scaled seconds (see speed.py), for
run.py's `setup_s`.  Needs ptwell on the path.
"""

import speed

with speed.Sampler() as sampler:
    start = sampler.mark()
    import ptwell  # noqa: F401
    end = sampler.mark()
print(*sampler.timed(start, end))
