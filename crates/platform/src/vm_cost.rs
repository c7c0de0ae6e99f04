//! The one VM cost both the VM and the per-method static bounds
//! (`vmprobe-analysis`) read: the costliest tier's dispatch work.

/// Dispatch work per bytecode a not-yet-compiled method executes: the
/// costliest tier's dispatch, in integer µops.
pub const UNCOMPILED_DISPATCH_OPS: u32 = 8;
