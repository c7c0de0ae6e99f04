//! Hardware platform models for the `vmprobe` characterization suite.
//!
//! The paper measures two real boards:
//!
//! * **P6** — a 1.6 GHz Pentium M development board with 32 KB L1I, 32 KB
//!   L1D, a 1 MB on-die L2, and 512 MB of DDR SDRAM;
//! * **DBPXA255** — an Intel PXA255 (XScale) development board at 400 MHz
//!   with 32-way 32 KB instruction and data caches, **no L2**, and 64 MB of
//!   SDRAM.
//!
//! This crate substitutes cycle-accounting models for that silicon: a
//! [`Machine`] owns a [`CpuSpec`], a set-associative LRU [`Cache`] hierarchy
//! and a hardware-performance-monitor counter file ([`Hpm`]). The managed
//! runtime and the garbage collectors charge every instruction and memory
//! access into the machine; cycles, IPC and cache miss rates are *emergent*,
//! which is what lets the power model upstairs reproduce the paper's
//! component power ordering mechanistically.
//!
//! # Example
//!
//! ```
//! use vmprobe_platform::{Machine, PlatformKind};
//!
//! let mut m = Machine::new(PlatformKind::PentiumM);
//! m.int_ops(100);
//! m.load(0x1000_0000);
//! assert!(m.cycles() > 0);
//! assert_eq!(m.hpm().loads, 1);
//! ```

#![warn(missing_docs)]
mod addr;
mod cache;
mod cpu;
mod exec;
mod hpm;
mod machine;

pub use addr::{Addr, CLASSFILE_BASE, CODE_BASE, HEAP_BASE, PROBE_BASE, STACK_BASE, VM_BASE};
pub use cache::{Cache, CacheConfig, CacheStats};
pub use cpu::{CpuSpec, PlatformKind};
pub use exec::Exec;
pub use hpm::{Hpm, HpmDelta, HpmSnapshot, HpmUnwrapper, COUNTER_MASK_32, HPM_COUNTER_COUNT};
pub use machine::{Ledger, Machine};
