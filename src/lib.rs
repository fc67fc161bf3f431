//! # Aurora — a single level store, reproduced in Rust
//!
//! This meta-crate re-exports the public API of the Aurora single level
//! store reproduction ("The Aurora Single Level Store Operating System",
//! SOSP 2021). See the README for an architecture overview and DESIGN.md
//! for the substrate inventory and per-experiment index.
//!
//! The typical entry points are:
//!
//! * [`posix::Kernel`] — build a simulated machine and run POSIX-style
//!   applications on it.
//! * [`core::Sls`] — attach applications to the single level store,
//!   checkpoint, restore, and use the Aurora API.
//!
//! ```
//! use aurora::prelude::*;
//!
//! // Boot a simulated machine with an Optane-like striped store.
//! let mut world = World::quickstart();
//! let pid = world.spawn_counter_app();
//! let gid = world.sls.attach(pid, Default::default()).unwrap();
//! let cp = world.sls.checkpoint_now(gid).unwrap();
//! assert!(cp.stop_time_ns > 0);
//! ```

pub use aurora_apps as apps;
pub use aurora_cluster as cluster;
pub use aurora_core as core;
pub use aurora_criu as criu;
pub use aurora_fs as fs;
pub use aurora_objstore as objstore;
pub use aurora_posix as posix;
pub use aurora_sim as sim;
pub use aurora_storage as storage;
pub use aurora_vm as vm;
pub use aurora_workloads as workloads;

/// Convenience re-exports for examples and quickstarts.
pub mod prelude {
    pub use aurora_core::world::World;
    pub use aurora_core::{AuroraApi, Sls, SlsOptions};
    pub use aurora_posix::Kernel;
    pub use aurora_sim::units::*;
    pub use aurora_sim::{Clock, CostModel};
}
