//! Lowering from stack bytecode to the register IR.
//!
//! The depth table the program stored when its structural phase ran
//! ([`Program::stack_depths`]) gives every reachable pc exactly one
//! static operand-stack depth, which makes the stack-to-register
//! mapping total: local `n` is register `n`, the operand slot at depth
//! `d` is register `n_locals + d`. Emission is then strictly 1:1: register
//! instruction `i` is bytecode `pc == i`, so branch targets, the ifetch
//! cadence (`pc & 7 == 0`) and fault pcs carry over unchanged.
//! Unreachable pcs lower to `Nop` placeholders that can never execute.
//!
//! Every [`Program`] is structurally sound by construction, so lowering
//! cannot fail and walks nothing again.
//!
//! Lowering happens host-side at a method's first compile and charges
//! zero simulated cycles: the *modeled* compilation cost is the
//! compiler's own charge. The body does not depend on the tier; tiers
//! differ only in what the engine charges for it.

use std::collections::BTreeMap;

use vmprobe_bytecode::{Method, Op, Program};

use super::{AluKind, CmpKind, FAluKind, RirBody, RirOp};

/// Lower `method` to a register body.
pub(crate) fn lower(program: &Program, method: &Method) -> RirBody {
    let depth_at = program.stack_depths(method.id());
    let n_locals = u16::from(method.n_locals());
    // The structural phase bounds `n_locals + depth` by `u16::MAX`.
    let max_depth = depth_at.iter().flatten().copied().max().unwrap_or(0);
    let n_regs = n_locals + max_depth;

    // Literal pools deduplicate through BTreeMaps (floats keyed by bit
    // pattern so NaN payloads and -0.0 survive); no hashing, per the
    // determinism lint.
    let mut pool_i: Vec<i64> = Vec::new();
    let mut pool_f: Vec<f64> = Vec::new();
    // A pool holds at most one entry per instruction, and pcs are `u32`.
    let mut seen_i: BTreeMap<i64, u32> = BTreeMap::new();
    let mut seen_f: BTreeMap<u64, u32> = BTreeMap::new();
    let mut intern_i = |v: i64, pool: &mut Vec<i64>| -> u32 {
        *seen_i.entry(v).or_insert_with(|| {
            pool.push(v);
            (pool.len() - 1) as u32
        })
    };
    let mut intern_f = |v: f64, pool: &mut Vec<f64>| -> u32 {
        *seen_f.entry(v.to_bits()).or_insert_with(|| {
            pool.push(v);
            (pool.len() - 1) as u32
        })
    };

    let code = method.code();
    let mut ops = Vec::with_capacity(code.len());
    for (idx, op) in code.iter().enumerate() {
        let pc = idx as u32;
        let Some(d) = depth_at[idx] else {
            ops.push(RirOp::Nop); // unreachable pc: placeholder, never runs
            continue;
        };
        let d = usize::from(d);
        let r = |depth: usize| n_locals + depth as u16;
        let lowered = match *op {
            Op::ConstI(v) => RirOp::ConstI {
                dst: r(d),
                lit: intern_i(v, &mut pool_i),
            },
            Op::ConstF(v) => RirOp::ConstF {
                dst: r(d),
                lit: intern_f(v, &mut pool_f),
            },
            Op::ConstNull => RirOp::ConstNull { dst: r(d) },
            Op::Dup => RirOp::Mov {
                dst: r(d),
                src: r(d - 1),
            },
            Op::Pop => RirOp::Drop,
            Op::Swap => RirOp::Swap {
                a: r(d - 1),
                b: r(d - 2),
            },
            Op::Load(n) => RirOp::LoadLocal {
                dst: r(d),
                local: u16::from(n),
            },
            Op::Store(n) => RirOp::StoreLocal {
                local: u16::from(n),
                src: r(d - 1),
            },
            Op::Add
            | Op::Sub
            | Op::Mul
            | Op::Div
            | Op::Rem
            | Op::Shl
            | Op::Shr
            | Op::And
            | Op::Or
            | Op::Xor => RirOp::IntAlu {
                kind: AluKind::from_op(*op).expect("integer ALU op"),
                dst: r(d - 2),
                a: r(d - 2),
                b: r(d - 1),
            },
            Op::Neg => RirOp::Neg {
                dst: r(d - 1),
                src: r(d - 1),
            },
            Op::FAdd | Op::FSub | Op::FMul | Op::FDiv => RirOp::FAlu {
                kind: FAluKind::from_op(*op).expect("float ALU op"),
                dst: r(d - 2),
                a: r(d - 2),
                b: r(d - 1),
            },
            Op::FNeg => RirOp::FNeg {
                dst: r(d - 1),
                src: r(d - 1),
            },
            Op::Math(f) => RirOp::Math {
                f,
                dst: r(d - 1),
                src: r(d - 1),
            },
            Op::I2F => RirOp::I2F {
                dst: r(d - 1),
                src: r(d - 1),
            },
            Op::F2I => RirOp::F2I {
                dst: r(d - 1),
                src: r(d - 1),
            },
            Op::Lt | Op::Le | Op::Gt | Op::Ge | Op::Eq | Op::Ne => RirOp::Cmp {
                kind: CmpKind::from_op(*op).expect("comparison op"),
                dst: r(d - 2),
                a: r(d - 2),
                b: r(d - 1),
            },
            Op::IsNull => RirOp::IsNull {
                dst: r(d - 1),
                src: r(d - 1),
            },
            Op::Jump(t) => RirOp::Jump {
                target: t,
                back_edge: t <= pc,
            },
            Op::BrTrue(t) => RirOp::Br {
                cond: r(d - 1),
                target: t,
                on_true: true,
                back_edge: t <= pc,
            },
            Op::BrFalse(t) => RirOp::Br {
                cond: r(d - 1),
                target: t,
                on_true: false,
                back_edge: t <= pc,
            },
            Op::Call(m) => RirOp::Call {
                m,
                save_sp: r(d - program.method(m).n_args() as usize) - n_locals,
            },
            Op::Ret => RirOp::Ret,
            Op::RetV => RirOp::RetV { src: r(d - 1) },
            Op::New(c) => RirOp::New {
                class: c,
                dst: r(d),
                gc_sp: d as u16,
            },
            Op::NewArr(kind) => RirOp::NewArr {
                kind,
                len: r(d - 1),
                dst: r(d - 1),
                gc_sp: (d - 1) as u16,
            },
            Op::GetField(fidx) => RirOp::GetField {
                obj: r(d - 1),
                dst: r(d - 1),
                fidx,
            },
            Op::PutField(fidx) => RirOp::PutField {
                obj: r(d - 2),
                val: r(d - 1),
                fidx,
            },
            Op::GetStatic(s) => RirOp::GetStatic { dst: r(d), slot: s },
            Op::PutStatic(s) => RirOp::PutStatic {
                src: r(d - 1),
                slot: s,
            },
            Op::ALoad => RirOp::ALoad {
                arr: r(d - 2),
                idx: r(d - 1),
                dst: r(d - 2),
            },
            Op::AStore => RirOp::AStore {
                arr: r(d - 3),
                idx: r(d - 2),
                val: r(d - 1),
            },
            Op::ArrLen => RirOp::ArrLen {
                arr: r(d - 1),
                dst: r(d - 1),
            },
            Op::Nop => RirOp::Nop,
        };
        ops.push(lowered);
    }

    RirBody {
        fused: super::fuse::fuse(&ops),
        ops,
        n_locals,
        n_regs,
        pool_i,
        pool_f,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmprobe_bytecode::ProgramBuilder;

    fn lowered(f: impl FnOnce(&mut vmprobe_bytecode::MethodBuilder)) -> RirBody {
        let mut p = ProgramBuilder::new();
        let m = p.function("t", 1, 2, f);
        let prog = p.finish(m).unwrap();
        lower(&prog, prog.method(prog.entry()))
    }

    #[test]
    fn emission_is_one_to_one_with_bytecode() {
        let body = lowered(|b| {
            b.load(0).const_i(2).mul().ret_value();
        });
        // function(_, 1, 2) declares 1 arg + 2 extra locals = 3 locals.
        assert_eq!(body.ops.len(), 4);
        assert_eq!(body.n_locals, 3);
        // load 0 at depth 0 writes register n_locals + 0.
        assert_eq!(body.ops[0], RirOp::LoadLocal { dst: 3, local: 0 });
        assert_eq!(body.ops[1], RirOp::ConstI { dst: 4, lit: 0 });
        assert_eq!(
            body.ops[2],
            RirOp::IntAlu {
                kind: AluKind::Mul,
                dst: 3,
                a: 3,
                b: 4
            }
        );
        assert_eq!(body.ops[3], RirOp::RetV { src: 3 });
        assert_eq!(body.n_regs, 5);
    }

    #[test]
    fn literal_pools_deduplicate() {
        let body = lowered(|b| {
            b.const_i(7).pop();
            b.const_i(7).pop();
            b.const_i(9).pop();
            b.const_f(1.5).pop();
            b.const_f(1.5).pop();
            b.ret();
        });
        assert_eq!(body.pool_i, vec![7, 9]);
        assert_eq!(body.pool_f, vec![1.5]);
        assert_eq!(body.ops[0], RirOp::ConstI { dst: 3, lit: 0 });
        assert_eq!(body.ops[2], RirOp::ConstI { dst: 3, lit: 0 });
        assert_eq!(body.ops[4], RirOp::ConstI { dst: 3, lit: 1 });
    }

    #[test]
    fn back_edges_are_resolved_at_lowering_time() {
        let body = lowered(|b| {
            b.for_range(0, 0, 4, |b| {
                b.nop();
            });
            b.ret();
        });
        let back = body
            .ops
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    RirOp::Jump {
                        back_edge: true,
                        ..
                    } | RirOp::Br {
                        back_edge: true,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(back, 1, "loop has exactly one back edge");
    }

    #[test]
    fn unreachable_code_lowers_to_nop_placeholders() {
        let prog =
            vmprobe_bytecode::assemble(".method main 0 1\n    ret\n    const_i 1\n    ret_value\n")
                .unwrap();
        let body = lower(&prog, prog.method(prog.entry()));
        assert_eq!(body.ops[1], RirOp::Nop);
        assert_eq!(body.ops[2], RirOp::Nop);
    }
}
