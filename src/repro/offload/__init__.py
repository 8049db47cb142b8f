"""ZeRO-Offload is the host-only placement of ``repro.infinity``:
``InfinityConfig(optimizer_tier="host", ...)`` stops at the host tier, and
one runtime and one schedule serve both (the host Adam's cost lives in
``repro.infinity.schedule``). What is left here is ``engine``, a stub
hostbench's probe resolves by name.
"""
