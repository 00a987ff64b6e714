//! Replicated-storage simulation: the paper's three deployment targets.
//!
//! - [`replayer`] — user-level / kernel-style single node with an N-way
//!   replicated flash array and pluggable admission policies (§6.1, §6.2).
//! - [`wide`] — the Ceph-like multi-node cluster with scaling-factor
//!   fan-out and noise injectors (§6.3).
//! - [`train`] — profiling-run helpers that train one model per device.
//!
//! # Examples
//!
//! ```no_run
//! use heimdall_cluster::replayer::replay;
//! use heimdall_cluster::train::fresh_devices;
//! use heimdall_policies::Baseline;
//! use heimdall_ssd::DeviceConfig;
//! use heimdall_trace::gen::TraceBuilder;
//! use heimdall_trace::WorkloadProfile;
//!
//! let trace = TraceBuilder::from_profile(WorkloadProfile::MsrLike).seed(1).build();
//! let cfgs = vec![DeviceConfig::datacenter_nvme(); 2];
//! let mut devices = fresh_devices(&cfgs, 7);
//! let result = replay(&trace, &mut devices, &mut Baseline);
//! println!("avg read latency: {:.0} us", result.mean_latency());
//! ```

mod backoff;
pub mod eventq;
pub mod replayer;
pub mod train;
pub mod wide;

pub use eventq::EventQueue;
pub use replayer::{replay, DeviceLane, ReplayProfile, ReplayResult};
pub use train::{fresh_devices, fresh_devices_with_plans};
pub use wide::{run_wide, run_wide_reference, WideConfig, WidePolicy, WideResult};
