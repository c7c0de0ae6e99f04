//! The VM's own work per unit, in integer µops. The VM charges these; the
//! per-method static bounds (`vmprobe-analysis`) read the dispatch cost
//! from here too.

/// Jikes RVM baseline compilation work per bytecode byte.
pub const BASE_OPS_PER_BYTE: u32 = 80;
/// Kaffe JIT translation work per bytecode byte.
pub const JIT_OPS_PER_BYTE: u32 = 140;
/// Jikes RVM optimizing compilation work per bytecode byte.
pub const OPT_OPS_PER_BYTE: u32 = 2_200;
/// Dispatch work per bytecode a not-yet-compiled method executes: the
/// costliest tier's dispatch.
pub const UNCOMPILED_DISPATCH_OPS: u32 = 8;
/// Class-file parse work per class-file byte.
pub const PARSE_OPS_PER_BYTE: u32 = 2;
/// Verification work per bytecode byte (abstract interpretation).
pub const VERIFY_OPS_PER_BYTE: u32 = 3;
