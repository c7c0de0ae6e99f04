//! Fused idioms: the hot loop's second instruction stream.
//!
//! A handful of bytecode idioms make up most of what the workloads
//! execute: `load load cmp br` closes nearly every loop test, `load const
//! alu store` nearly every induction step. [`fuse`] derives, from a
//! body's canonical 1:1 stream, a stream of the same length whose entry
//! `pc` is the longest idiom of 2–[`MAX_IDIOM`] ops that starts at `pc`,
//! or `ops[pc]` when none does. Entries overlap, so a jump into the middle
//! of an idiom lands on that pc's own entry. Only the hot loop reads the
//! fused stream; the exact path, branch targets, fault pcs and the
//! verifier keep the canonical one, which stays the contract.
//!
//! Each idiom is defined once, in [`components`]: its expansion back to
//! the component ops. [`idiom_at`] binds an idiom's operands from the
//! canonical ops by pattern and keeps it only when it expands to exactly
//! those ops, so a fused entry never stands for anything else. Its
//! handler (`Vm::instr`) replays each component's metering in order and
//! makes every state change after the last charge.
//!
//! The table was chosen from the op n-grams the hot loop executes on the
//! benchmark grids (DESIGN §17, *Fused ops*).

use super::RirOp;

/// The longest idiom, in ops. The hot loop's horizon keeps room for this
/// many covered ops.
pub(crate) const MAX_IDIOM: usize = 4;

/// The canonical ops an entry of the fused stream stands for.
#[derive(Debug)]
pub(crate) struct Components {
    ops: [RirOp; MAX_IDIOM],
    len: usize,
}

impl Components {
    fn of<const N: usize>(ops: [RirOp; N]) -> Self {
        let mut all = [RirOp::Nop; MAX_IDIOM];
        all[..N].copy_from_slice(&ops);
        Self { ops: all, len: N }
    }
}

impl std::ops::Deref for Components {
    type Target = [RirOp];
    fn deref(&self) -> &[RirOp] {
        &self.ops[..self.len]
    }
}

/// The canonical ops `op` stands for: its idiom's components, or `op`
/// itself when it is a canonical op.
pub(crate) fn components(op: &RirOp) -> Components {
    use RirOp::*;
    // Register `k` slots above the idiom's base `d`. Wrapping, so that a
    // candidate bound from unrelated operands cannot panic; it then fails
    // the comparison with the canonical ops.
    let r = |d: u16, k: u16| d.wrapping_add(k);
    // Component ops at the registers an idiom gives them: a binary op
    // reads `d` and `d + 1` and writes `d`.
    let ld = |dst, local| LoadLocal { dst, local };
    let st = |local, src| StoreLocal { local, src };
    let alu = |kind, d| IntAlu {
        kind,
        dst: d,
        a: d,
        b: r(d, 1),
    };
    let falu = |kind, d| FAlu {
        kind,
        dst: d,
        a: d,
        b: r(d, 1),
    };
    let cmp = |kind, d| Cmp {
        kind,
        dst: d,
        a: d,
        b: r(d, 1),
    };
    let br = |cond, target, on_true, back_edge| Br {
        cond,
        target,
        on_true,
        back_edge,
    };
    match *op {
        LdLdCmpBr {
            a,
            b,
            d,
            kind,
            on_true,
            back_edge,
            target,
        } => Components::of([
            ld(d, a),
            ld(r(d, 1), b),
            cmp(kind, d),
            br(d, target, on_true, back_edge),
        ]),
        LdConstIAluSt { a, d, c, kind, lit } => Components::of([
            ld(d, a),
            ConstI { dst: r(d, 1), lit },
            alu(kind, d),
            st(c, d),
        ]),
        LdConstFFAluFAlu { a, d, k1, k2, lit } => Components::of([
            ld(r(d, 1), a),
            ConstF { dst: r(d, 2), lit },
            falu(k1, r(d, 1)),
            falu(k2, d),
        ]),
        LdConstIAlu { a, d, kind, lit } => {
            Components::of([ld(d, a), ConstI { dst: r(d, 1), lit }, alu(kind, d)])
        }
        LdConstFFAlu { a, d, kind, lit } => {
            Components::of([ld(d, a), ConstF { dst: r(d, 1), lit }, falu(kind, d)])
        }
        ConstICmpBr {
            d,
            kind,
            on_true,
            back_edge,
            lit,
            target,
        } => Components::of([
            ConstI { dst: r(d, 1), lit },
            cmp(kind, d),
            br(d, target, on_true, back_edge),
        ]),
        GetSLdGetF { slot, a, d, fidx } => Components::of([
            GetStatic { dst: d, slot },
            ld(r(d, 1), a),
            GetField {
                obj: r(d, 1),
                dst: r(d, 1),
                fidx,
            },
        ]),
        LdLd { a, b, d } => Components::of([ld(d, a), ld(r(d, 1), b)]),
        ConstIAlu { d, kind, lit } => Components::of([ConstI { dst: r(d, 1), lit }, alu(kind, d)]),
        ConstFFAlu { d, kind, lit } => {
            Components::of([ConstF { dst: r(d, 1), lit }, falu(kind, d)])
        }
        LdAlu { a, d, kind } => Components::of([ld(r(d, 1), a), alu(kind, d)]),
        FAluSt { d, c, kind } => Components::of([falu(kind, d), st(c, d)]),
        AluPutS { d, slot, kind } => Components::of([alu(kind, d), PutStatic { src: d, slot }]),
        LdALoad { a, d } => Components::of([
            ld(r(d, 1), a),
            ALoad {
                arr: d,
                idx: r(d, 1),
                dst: d,
            },
        ]),
        MovMov { d } => Components::of([
            Mov {
                dst: r(d, 1),
                src: d,
            },
            Mov {
                dst: r(d, 2),
                src: r(d, 1),
            },
        ]),
        op => Components::of([op]),
    }
}

/// The longest idiom whose components are exactly the ops `code` starts
/// with, if any.
pub(crate) fn idiom_at(code: &[RirOp]) -> Option<RirOp> {
    use RirOp::*;
    // Bind each idiom's operands from its components by kind, longest
    // first; `components` then checks every operand against `code`.
    let quads = match *code {
        [LoadLocal { dst: d, local: a }, LoadLocal { local: b, .. }, Cmp { kind, .. }, Br {
            target,
            on_true,
            back_edge,
            ..
        }, ..] => Some(LdLdCmpBr {
            a,
            b,
            d,
            kind,
            on_true,
            back_edge,
            target,
        }),
        [LoadLocal { dst: d, local: a }, ConstI { lit, .. }, IntAlu { kind, .. }, StoreLocal { local: c, .. }, ..] => {
            Some(LdConstIAluSt { a, d, c, kind, lit })
        }
        [LoadLocal { local: a, .. }, ConstF { lit, .. }, FAlu { kind: k1, .. }, FAlu {
            kind: k2, dst: d, ..
        }, ..] => Some(LdConstFFAluFAlu { a, d, k1, k2, lit }),
        _ => None,
    };
    let triples = match *code {
        [LoadLocal { dst: d, local: a }, ConstI { lit, .. }, IntAlu { kind, .. }, ..] => {
            Some(LdConstIAlu { a, d, kind, lit })
        }
        [LoadLocal { dst: d, local: a }, ConstF { lit, .. }, FAlu { kind, .. }, ..] => {
            Some(LdConstFFAlu { a, d, kind, lit })
        }
        [ConstI { lit, .. }, Cmp { kind, dst: d, .. }, Br {
            target,
            on_true,
            back_edge,
            ..
        }, ..] => Some(ConstICmpBr {
            d,
            kind,
            on_true,
            back_edge,
            lit,
            target,
        }),
        [GetStatic { dst: d, slot }, LoadLocal { local: a, .. }, GetField { fidx, .. }, ..] => {
            Some(GetSLdGetF { slot, a, d, fidx })
        }
        _ => None,
    };
    let pairs = match *code {
        [LoadLocal { dst: d, local: a }, LoadLocal { local: b, .. }, ..] => Some(LdLd { a, b, d }),
        [ConstI { lit, .. }, IntAlu { kind, dst: d, .. }, ..] => Some(ConstIAlu { d, kind, lit }),
        [ConstF { lit, .. }, FAlu { kind, dst: d, .. }, ..] => Some(ConstFFAlu { d, kind, lit }),
        [LoadLocal { local: a, .. }, IntAlu { kind, dst: d, .. }, ..] => Some(LdAlu { a, d, kind }),
        [FAlu { kind, dst: d, .. }, StoreLocal { local: c, .. }, ..] => Some(FAluSt { d, c, kind }),
        [IntAlu { kind, dst: d, .. }, PutStatic { slot, .. }, ..] => {
            Some(AluPutS { d, slot, kind })
        }
        [LoadLocal { local: a, .. }, ALoad { arr: d, .. }, ..] => Some(LdALoad { a, d }),
        [Mov { src: d, .. }, Mov { .. }, ..] => Some(MovMov { d }),
        _ => None,
    };
    [quads, triples, pairs]
        .into_iter()
        .flatten()
        .find(|idiom| code.starts_with(&components(idiom)))
}

/// The fused stream for a canonical stream: one entry per pc.
pub(crate) fn fuse(ops: &[RirOp]) -> Vec<RirOp> {
    (0..ops.len())
        .map(|pc| idiom_at(&ops[pc..]).unwrap_or(ops[pc]))
        .collect()
}

#[cfg(test)]
mod tests {
    use vmprobe_bytecode::{MethodId, ProgramBuilder};
    use vmprobe_workloads::InputScale;

    use super::*;
    use crate::rir::lower;

    /// For every method of every registered benchmark at both scales, each
    /// fused entry expands to exactly the canonical ops it covers, and no
    /// idiom runs past the body.
    #[test]
    fn every_fused_entry_expands_to_the_ops_it_covers() {
        let mut fused = 0;
        for bench in vmprobe_workloads::all_benchmarks() {
            for scale in [InputScale::Full, InputScale::Reduced] {
                let program = bench.build(scale);
                for m in 0..program.method_count() {
                    let method = program.method(MethodId(m as u32));
                    let body = lower(&program, method).unwrap();
                    assert_eq!(body.fused.len(), body.ops.len());
                    for (pc, entry) in body.fused.iter().enumerate() {
                        let ops = components(entry);
                        let (name, end) = (bench.name, pc + ops.len());
                        assert!(
                            end <= body.ops.len(),
                            "{name} m{m} pc {pc} runs past the body"
                        );
                        assert_eq!(*ops, body.ops[pc..end], "{name} m{m} pc {pc}");
                        fused += usize::from(ops.len() > 1);
                    }
                }
            }
        }
        assert!(fused > 0, "no idiom matched");
    }

    #[test]
    fn entries_overlap_and_prefer_the_longest_idiom() {
        let mut p = ProgramBuilder::new();
        let m = p.function("t", 0, 2, |b| {
            b.load(0).load(1).lt();
            b.const_i(1).add().store(0);
            b.ret();
        });
        let prog = p.finish(m).unwrap();
        let body = lower(&prog, prog.method(prog.entry())).unwrap();
        // `load load` at 0 (the `lt` after it is no `Br`), `load lt` is
        // no idiom, so pc 1 falls back to `load`; `const add store` has
        // no leading `load`, so pc 3 is the pair `const add`.
        assert!(matches!(body.fused[0], RirOp::LdLd { a: 0, b: 1, d: 2 }));
        assert_eq!(body.fused[1], body.ops[1]);
        assert!(matches!(body.fused[3], RirOp::ConstIAlu { .. }));
        assert!(matches!(body.fused[4], RirOp::IntAlu { .. }));
        assert_eq!(idiom_at(&body.ops[6..]), None, "a lone `ret` is no idiom");
    }
}
