//! Outside-in benchmark of the LAX reproduction. It drives the simulator
//! through public APIs only and times each layer by wrapping the calls into
//! it; see `README.md` for the workloads and the metric map.

#![warn(missing_docs)]

pub mod cells;
pub mod layers;
pub mod replay;
pub mod trace;
