//! Discrete-event model of a black-box flash device.
//!
//! The Heimdall paper evaluates on ten physical SSD models plus FEMU-emulated
//! devices. This crate substitutes a behavioural simulator that reproduces
//! the phenomena the admission problem is built on (§2, §3.2):
//!
//! - microsecond base read latency with size-proportional transfer time,
//! - *slow periods*: garbage collection, urgent write-buffer flushes, and
//!   wear leveling amplify read latency by large per-event factors while
//!   simultaneously dropping throughput,
//! - *fast outliers in slow periods*: device-DRAM cache hits,
//! - *slow outliers in fast periods*: transient read-retry/ECC events,
//! - FCFS queueing over a configurable number of internal channels, which
//!   makes the observable queue length an informative feature.
//!
//! Ground-truth busy intervals are recorded for evaluation (labeling
//! accuracy, Fig 5a) but are **never** visible to admission policies.
//!
//! # Examples
//!
//! ```
//! use heimdall_ssd::{DeviceConfig, SsdDevice};
//! use heimdall_trace::{IoOp, IoRequest, PAGE_SIZE};
//!
//! let mut dev = SsdDevice::new(DeviceConfig::datacenter_nvme(), 7);
//! let req = IoRequest { id: 0, arrival_us: 0, offset: 0, size: PAGE_SIZE, op: IoOp::Read };
//! let done = dev.submit(&req, 0);
//! assert!(done.latency_us > 0);
//! ```

pub mod config;
pub mod device;
pub mod fault;
mod jitter;

pub use config::DeviceConfig;
pub use device::{BusyInterval, BusyKind, Completion, DeviceError, DeviceStats, SsdDevice};
pub use fault::{DeviceUnavailable, FaultKind, FaultPlan, FaultPlanError, FaultStats, FaultWindow};
