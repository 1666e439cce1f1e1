//! Benchmark harness crate for the maleva reproduction; see the `repro`, `linalg_bench`, `serve_load`, `obs_overhead` and `bench_gate` binaries.
