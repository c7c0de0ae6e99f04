//! Register IR: the one form every method executes in.
//!
//! Each method is lowered once, at its first compile, from verified stack
//! bytecode to fixed-width three-address instructions over a flat
//! per-activation register file (the Regorus RVM recipe: register windows
//! per frame recycled through a pool, literal pools resolved at load time,
//! a linear pc with absolute jumps), and every frame runs on the register
//! engine in `exec`, whatever its tier.
//!
//! **Tiers are metering parameters.** Jikes' baseline and optimizing code
//! and Kaffe's JIT code differ in what they *cost*, not in what they
//! compute: the engine reads the frame's [`Tier`](crate::Tier) and
//! charges its [`dispatch_ops`](crate::Tier::dispatch_ops) per bytecode,
//! and meters `LoadLocal`/`StoreLocal` as stack-memory traffic when
//! [`locals_in_memory`](crate::Tier::locals_in_memory) holds and as one
//! register µop when it does not. The instruction stream is 1:1 with the
//! bytecode, so ifetch cadence, branch targets and fault pcs are the
//! bytecode's own. The hot loop dispatches a second stream derived from
//! it (`fuse`), in which one entry may stand for a measured idiom of up
//! to four ops and is metered as those ops would be.
//!
//! **Recorded oracle.** `tests/golden/engine/digests.txt` holds digests
//! of a stack-machine interpreter's observables (reports, stats, spans,
//! results and typed faults) for a seeded corpus on every tier, collector
//! and fault spec; `tests/properties.rs` replays it against this engine.
//! A divergence is a bug here, never a re-bless.

mod exec;
mod fuse;
mod lower;

pub(crate) use lower::lower;

use vmprobe_bytecode::{ArrKind, ClassId, MathFn, MethodId, Op};

use crate::Value;

/// Integer ALU operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AluKind {
    /// Wrapping add.
    Add,
    /// Wrapping subtract.
    Sub,
    /// Wrapping multiply.
    Mul,
    /// Division; division by zero yields 0.
    Div,
    /// Remainder; zero divisor yields 0.
    Rem,
    /// Shift left by `b & 63`.
    Shl,
    /// Arithmetic shift right by `b & 63`.
    Shr,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
}

impl AluKind {
    /// The kind for a stack-bytecode integer ALU opcode.
    pub(crate) fn from_op(op: Op) -> Option<Self> {
        Some(match op {
            Op::Add => AluKind::Add,
            Op::Sub => AluKind::Sub,
            Op::Mul => AluKind::Mul,
            Op::Div => AluKind::Div,
            Op::Rem => AluKind::Rem,
            Op::Shl => AluKind::Shl,
            Op::Shr => AluKind::Shr,
            Op::And => AluKind::And,
            Op::Or => AluKind::Or,
            Op::Xor => AluKind::Xor,
            _ => return None,
        })
    }
}

/// Float ALU operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FAluKind {
    /// Float add.
    Add,
    /// Float subtract.
    Sub,
    /// Float multiply.
    Mul,
    /// Float divide; division by zero yields 0.0.
    Div,
}

impl FAluKind {
    /// The kind for a stack-bytecode float ALU opcode.
    pub(crate) fn from_op(op: Op) -> Option<Self> {
        Some(match op {
            Op::FAdd => FAluKind::Add,
            Op::FSub => FAluKind::Sub,
            Op::FMul => FAluKind::Mul,
            Op::FDiv => FAluKind::Div,
            _ => return None,
        })
    }
}

/// Comparison kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CmpKind {
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
}

impl CmpKind {
    /// The kind for a stack-bytecode comparison opcode.
    pub(crate) fn from_op(op: Op) -> Option<Self> {
        Some(match op {
            Op::Lt => CmpKind::Lt,
            Op::Le => CmpKind::Le,
            Op::Gt => CmpKind::Gt,
            Op::Ge => CmpKind::Ge,
            Op::Eq => CmpKind::Eq,
            Op::Ne => CmpKind::Ne,
            _ => return None,
        })
    }
}

/// Integer ALU semantics.
#[inline(always)]
pub(crate) fn int_alu(kind: AluKind, a: i64, b: i64) -> i64 {
    match kind {
        AluKind::Add => a.wrapping_add(b),
        AluKind::Sub => a.wrapping_sub(b),
        AluKind::Mul => a.wrapping_mul(b),
        AluKind::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        AluKind::Rem => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
        AluKind::Shl => a.wrapping_shl(b as u32 & 63),
        AluKind::Shr => a.wrapping_shr(b as u32 & 63),
        AluKind::And => a & b,
        AluKind::Or => a | b,
        AluKind::Xor => a ^ b,
    }
}

/// Float ALU semantics.
#[inline(always)]
pub(crate) fn f_alu(kind: FAluKind, a: f64, b: f64) -> f64 {
    match kind {
        FAluKind::Add => a + b,
        FAluKind::Sub => a - b,
        FAluKind::Mul => a * b,
        FAluKind::Div => {
            if b == 0.0 {
                0.0
            } else {
                a / b
            }
        }
    }
}

/// Comparison semantics: float contagion when
/// either operand is a float, identity (plus handle-order `Lt`) for
/// reference pairs, integer views otherwise. Always inlined: the hot
/// loop's accumulator stays in a register only while nothing is called.
#[inline(always)]
pub(crate) fn compare(kind: CmpKind, a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::F(x), y) | (y, Value::F(x)) => {
            let (x, y) = match (a, b) {
                (Value::F(_), _) => (x, y.as_f()),
                _ => (y.as_f(), x),
            };
            match kind {
                CmpKind::Lt => x < y,
                CmpKind::Le => x <= y,
                CmpKind::Gt => x > y,
                CmpKind::Ge => x >= y,
                CmpKind::Eq => x == y,
                CmpKind::Ne => x != y,
            }
        }
        (Value::Ref(x), Value::Ref(y)) => match kind {
            CmpKind::Eq => x == y,
            CmpKind::Ne => x != y,
            _ => x.0 < y.0 && matches!(kind, CmpKind::Lt),
        },
        _ => {
            let (x, y) = (a.as_i(), b.as_i());
            match kind {
                CmpKind::Lt => x < y,
                CmpKind::Le => x <= y,
                CmpKind::Gt => x > y,
                CmpKind::Ge => x >= y,
                CmpKind::Eq => x == y,
                CmpKind::Ne => x != y,
            }
        }
    }
}

/// Math intrinsic semantics.
#[inline]
pub(crate) fn math_fn(f: MathFn, a: f64) -> f64 {
    match f {
        MathFn::Sqrt => a.abs().sqrt(),
        MathFn::Sin => a.sin(),
        MathFn::Cos => a.cos(),
        MathFn::Log => a.abs().max(1e-300).ln(),
        MathFn::Exp => a.min(700.0).exp(),
    }
}

/// One fixed-width three-address instruction.
///
/// Register operands index the frame's window: registers `0..n_locals`
/// are the method locals, register `n_locals + d` is the operand-stack
/// slot at depth `d` (the verifier guarantees a single static depth per
/// pc, so the mapping is total). The canonical stream is 1:1 with the
/// source bytecode — instruction index *is* the bytecode pc — which keeps
/// the ifetch cadence, branch targets and fault pcs those of the bytecode.
/// The fused idioms, after `Nop`, appear only in the fused stream; their
/// operands are those of their components, expressed from a base
/// register `d` ([`fuse::components`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum RirOp {
    /// `window[dst] = pool_i[lit]`.
    ConstI { dst: u16, lit: u32 },
    /// `window[dst] = pool_f[lit]`.
    ConstF { dst: u16, lit: u32 },
    /// `window[dst] = null`.
    ConstNull { dst: u16 },
    /// Register move (lowered `Dup`): one µop.
    Mov { dst: u16, src: u16 },
    /// `window[dst] = window[local]` (lowered `Load`): a stack-memory
    /// load when the frame's tier keeps locals in memory, one µop when it
    /// register-allocates them.
    LoadLocal { dst: u16, local: u16 },
    /// `window[local] = window[src]` (lowered `Store`), metered like
    /// [`RirOp::LoadLocal`] with a store.
    StoreLocal { local: u16, src: u16 },
    /// Discard-only (lowered `Pop`): charges the µop, moves nothing.
    Drop,
    /// Exchange two registers (lowered `Swap`).
    Swap { a: u16, b: u16 },
    /// Integer ALU: `window[dst] = a <kind> b`.
    IntAlu {
        kind: AluKind,
        dst: u16,
        a: u16,
        b: u16,
    },
    /// Integer negate.
    Neg { dst: u16, src: u16 },
    /// Float ALU.
    FAlu {
        kind: FAluKind,
        dst: u16,
        a: u16,
        b: u16,
    },
    /// Float negate.
    FNeg { dst: u16, src: u16 },
    /// Long-latency float intrinsic.
    Math { f: MathFn, dst: u16, src: u16 },
    /// Integer to float.
    I2F { dst: u16, src: u16 },
    /// Float to integer.
    F2I { dst: u16, src: u16 },
    /// Comparison producing 0/1.
    Cmp {
        kind: CmpKind,
        dst: u16,
        a: u16,
        b: u16,
    },
    /// Null test producing 0/1.
    IsNull { dst: u16, src: u16 },
    /// Unconditional jump; `back_edge` pre-resolves `target <= pc` for
    /// the hotness counter.
    Jump { target: u32, back_edge: bool },
    /// Conditional branch on `window[cond]`; `on_true` distinguishes
    /// `BrTrue` from `BrFalse`.
    Br {
        cond: u16,
        target: u32,
        on_true: bool,
        back_edge: bool,
    },
    /// Method call; `save_sp` is the operand depth after the arguments
    /// are consumed (the suspended frame's live depth, and the depth the
    /// return value lands at).
    Call { m: MethodId, save_sp: u16 },
    /// Return with no value.
    Ret,
    /// Return `window[src]`.
    RetV { src: u16 },
    /// Allocate an instance; `gc_sp` is the live operand depth while the
    /// collector may run.
    New {
        class: ClassId,
        dst: u16,
        gc_sp: u16,
    },
    /// Allocate an array of length `window[len]`.
    NewArr {
        kind: ArrKind,
        len: u16,
        dst: u16,
        gc_sp: u16,
    },
    /// `window[dst] = window[obj].field[fidx]`.
    GetField { obj: u16, dst: u16, fidx: u16 },
    /// `window[obj].field[fidx] = window[val]`.
    PutField { obj: u16, val: u16, fidx: u16 },
    /// `window[dst] = statics[slot]`.
    GetStatic { dst: u16, slot: u16 },
    /// `statics[slot] = window[src]`.
    PutStatic { src: u16, slot: u16 },
    /// `window[dst] = window[arr][window[idx]]`.
    ALoad { arr: u16, idx: u16, dst: u16 },
    /// `window[arr][window[idx]] = window[val]`.
    AStore { arr: u16, idx: u16, val: u16 },
    /// `window[dst] = len(window[arr])`.
    ArrLen { arr: u16, dst: u16 },
    /// No operation (also the placeholder for unreachable bytecode).
    Nop,

    // ---- fused idioms: the hot stream only (see `fuse`) ----
    /// `LoadLocal a; LoadLocal b; Cmp; Br` over registers `d`, `d + 1`.
    LdLdCmpBr {
        a: u16,
        b: u16,
        d: u16,
        kind: CmpKind,
        on_true: bool,
        back_edge: bool,
        target: u32,
    },
    /// `LoadLocal a; ConstI; IntAlu; StoreLocal c` over `d`, `d + 1`.
    LdConstIAluSt {
        a: u16,
        d: u16,
        c: u16,
        kind: AluKind,
        lit: u32,
    },
    /// `LoadLocal a; ConstF; FAlu k1; FAlu k2` over `d`..`d + 2`.
    LdConstFFAluFAlu {
        a: u16,
        d: u16,
        k1: FAluKind,
        k2: FAluKind,
        lit: u32,
    },
    /// `LoadLocal a; ConstI; IntAlu` over `d`, `d + 1`.
    LdConstIAlu {
        a: u16,
        d: u16,
        kind: AluKind,
        lit: u32,
    },
    /// `LoadLocal a; ConstF; FAlu` over `d`, `d + 1`.
    LdConstFFAlu {
        a: u16,
        d: u16,
        kind: FAluKind,
        lit: u32,
    },
    /// `ConstI; Cmp; Br` over `d`, `d + 1`.
    ConstICmpBr {
        d: u16,
        kind: CmpKind,
        on_true: bool,
        back_edge: bool,
        lit: u32,
        target: u32,
    },
    /// `GetStatic slot; LoadLocal a; GetField fidx` over `d`, `d + 1`.
    GetSLdGetF {
        slot: u16,
        a: u16,
        d: u16,
        fidx: u16,
    },
    /// `LoadLocal a; LoadLocal b` into `d`, `d + 1`.
    LdLd { a: u16, b: u16, d: u16 },
    /// `ConstI; IntAlu` over `d`, `d + 1`.
    ConstIAlu { d: u16, kind: AluKind, lit: u32 },
    /// `ConstF; FAlu` over `d`, `d + 1`.
    ConstFFAlu { d: u16, kind: FAluKind, lit: u32 },
    /// `LoadLocal a; IntAlu` over `d`, `d + 1`.
    LdAlu { a: u16, d: u16, kind: AluKind },
    /// `FAlu; StoreLocal c` over `d`, `d + 1`.
    FAluSt { d: u16, c: u16, kind: FAluKind },
    /// `IntAlu; PutStatic slot` over `d`, `d + 1`.
    AluPutS { d: u16, slot: u16, kind: AluKind },
    /// `LoadLocal a; ALoad` over `d`, `d + 1`.
    LdALoad { a: u16, d: u16 },
    /// `Mov; Mov` (two `Dup`s) over `d`..`d + 2`.
    MovMov { d: u16 },
}

// The hot loop copies one entry per dispatch; the fused idioms' operands
// must not widen it past two words.
const _: () = assert!(std::mem::size_of::<RirOp>() <= 16);

/// A lowered method body: the register instruction stream plus its
/// load-time-resolved literal pools and window shape.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RirBody {
    /// Fixed-width instruction stream, 1:1 with the source bytecode.
    pub ops: Vec<RirOp>,
    /// The hot loop's stream, derived from `ops` ([`fuse::fuse`]): entry
    /// `pc` is the longest fused idiom that starts at `pc`, or `ops[pc]`.
    pub fused: Vec<RirOp>,
    /// Local slots (registers `0..n_locals`).
    pub n_locals: u16,
    /// Total window size: locals plus the method's maximum operand depth.
    pub n_regs: u16,
    /// Integer literal pool (deduplicated at lowering time).
    pub pool_i: Vec<i64>,
    /// Float literal pool (deduplicated by bit pattern, so NaN payloads
    /// survive the round trip).
    pub pool_f: Vec<f64>,
}

/// Recycled register windows: frames borrow a `Vec<Value>` here instead
/// of allocating one per activation, keeping the engine's allocation
/// profile flat no matter how call-heavy the workload is.
#[derive(Debug, Default)]
pub(crate) struct WindowPool {
    free: Vec<Vec<Value>>,
}

/// Windows kept for reuse; beyond this the pool lets them drop. Deeper
/// recursion still works — release simply frees instead of caching.
const POOL_CAP: usize = 64;

impl WindowPool {
    /// A window of `n` registers, all reset to the default value
    /// (recycled windows must not leak stale references into GC root
    /// scans).
    pub(crate) fn acquire(&mut self, n: usize) -> Vec<Value> {
        let mut w = self.free.pop().unwrap_or_default();
        w.clear();
        w.resize(n, Value::default());
        w
    }

    /// Return a window to the pool.
    pub(crate) fn release(&mut self, w: Vec<Value>) {
        if self.free.len() < POOL_CAP {
            self.free.push(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_semantics_edge_cases() {
        assert_eq!(int_alu(AluKind::Div, 7, 0), 0);
        assert_eq!(int_alu(AluKind::Rem, 7, 0), 0);
        assert_eq!(int_alu(AluKind::Add, i64::MAX, 1), i64::MIN);
        assert_eq!(int_alu(AluKind::Shl, 1, 65), 2); // shift masked to 63
        assert_eq!(f_alu(FAluKind::Div, 1.0, 0.0), 0.0);
    }

    #[test]
    fn compare_mixes_floats() {
        assert!(compare(CmpKind::Lt, Value::I(1), Value::F(1.5)));
        assert!(compare(CmpKind::Gt, Value::F(1.5), Value::I(1)));
        assert!(compare(CmpKind::Eq, Value::Null, Value::I(0)));
        assert!(!compare(
            CmpKind::Lt,
            Value::Ref(vmprobe_heap::ObjId(5)),
            Value::Ref(vmprobe_heap::ObjId(3))
        ));
        assert!(compare(
            CmpKind::Ne,
            Value::Ref(vmprobe_heap::ObjId(5)),
            Value::Ref(vmprobe_heap::ObjId(3))
        ));
    }

    #[test]
    fn window_pool_recycles_and_resets() {
        let mut pool = WindowPool::default();
        let mut w = pool.acquire(4);
        w[2] = Value::F(9.0);
        let ptr = w.as_ptr() as usize;
        pool.release(w);
        let w2 = pool.acquire(3);
        assert_eq!(w2.as_ptr() as usize, ptr, "allocation reused");
        assert!(w2.iter().all(|v| *v == Value::default()), "window reset");
    }

    #[test]
    fn kind_conversions_cover_their_op_families() {
        for op in [
            Op::Add,
            Op::Sub,
            Op::Mul,
            Op::Div,
            Op::Rem,
            Op::Shl,
            Op::Shr,
            Op::And,
            Op::Or,
            Op::Xor,
        ] {
            assert!(AluKind::from_op(op).is_some());
        }
        assert!(AluKind::from_op(Op::FAdd).is_none());
        for op in [Op::FAdd, Op::FSub, Op::FMul, Op::FDiv] {
            assert!(FAluKind::from_op(op).is_some());
        }
        for op in [Op::Lt, Op::Le, Op::Gt, Op::Ge, Op::Eq, Op::Ne] {
            assert!(CmpKind::from_op(op).is_some());
        }
    }
}
