//! Library half of the oasis benchmark harness: seeded inputs, the
//! percentile rule, span bookkeeping, hypervisor steal and the correctness
//! oracle. The binary (`src/main.rs`) drives the real `oasis` server with
//! them.

#![forbid(unsafe_code)]

pub mod inputs;
pub mod oracle;
pub mod spans;
pub mod stats;
pub mod steal;
