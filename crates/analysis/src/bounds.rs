//! Static worst-case cost and energy bounds per method.
//!
//! The runtime meter charges every operation to a cycle-accurate cost
//! model and integrates power over those cycles. This module computes a
//! *static* counterpart for each method: the longest weighted acyclic
//! path through the method's own CFG (callees, allocation zeroing and
//! collections excluded), costed at the worst case of every op, and
//! converted to joules at `P_max`, an upper bound on the platform's
//! instantaneous CPU+DRAM power at its saturation clips (IPC 1.15, FP
//! rate 0.5/cycle, memory rate `freq / mem_base_cost`). Methods with
//! loops carry no finite per-invocation bound.
//!
//! Whole-run energy is not bounded here: it is computed exactly from the
//! counter file by [`crate::closed_energy_j`] (DESIGN.md §14).

use vmprobe_bytecode::{MethodId, Op, Program};
use vmprobe_platform::{CpuSpec, PlatformKind, UNCOMPILED_DISPATCH_OPS};
use vmprobe_power::{PowerCoeffs, FP_SATURATION, IPC_SATURATION};

use crate::cfg::Cfg;

/// Worst-case bound for one method.
#[derive(Debug, Clone)]
pub struct MethodBound {
    /// The method.
    pub method: MethodId,
    /// Method name.
    pub name: String,
    /// Instruction count.
    pub ops: usize,
    /// Basic-block count.
    pub blocks: usize,
    /// Whether the CFG has a cycle (no finite per-invocation bound).
    pub cyclic: bool,
    /// Worst-case cycles for one invocation through the method's own
    /// code (callees excluded), when acyclic.
    pub acyclic_cycles: Option<f64>,
    /// `acyclic_cycles` converted to joules at `P_max`.
    pub acyclic_energy_j: Option<f64>,
}

/// The per-method bounds of one program on one platform.
#[derive(Debug, Clone)]
pub struct ProgramBound {
    /// Peak modeled CPU+DRAM power in watts.
    pub p_max_w: f64,
    /// Clock the cycle bounds are converted at.
    pub freq_hz: f64,
    /// Per-method invocation bounds.
    pub methods: Vec<MethodBound>,
}

/// Upper bound on the modeled instantaneous CPU+DRAM power draw.
pub fn p_max_watts(platform: PlatformKind) -> f64 {
    let spec = CpuSpec::of(platform);
    let c = PowerCoeffs::of(platform);
    // Accesses per second can never exceed one per `mem_base_cost`
    // cycles; `c_mem` is calibrated per access per microsecond.
    let max_access_per_s = spec.freq_hz / spec.mem_base_cost;
    let max_access_per_us = max_access_per_s / 1e6;
    let cpu = c.cpu_idle_w
        + c.c_ipc * IPC_SATURATION
        + c.c_fp * FP_SATURATION
        + c.c_mem * max_access_per_us;
    let dram = c.dram_idle_w + c.dram_energy_per_access_j * max_access_per_s;
    cpu + dram
}

/// Per-primitive worst-case cycle costs for one platform.
#[derive(Debug, Clone, Copy)]
struct CostModel {
    int: f64,
    fp: f64,
    math: f64,
    branch: f64,
    /// Any single load/store/ifetch, assuming every cache misses all the
    /// way to DRAM.
    mem: f64,
}

impl CostModel {
    fn of(platform: PlatformKind) -> Self {
        let s = CpuSpec::of(platform);
        Self {
            int: s.int_cost,
            fp: s.fp_cost,
            math: s.math_cost,
            branch: s.branch_cost,
            mem: s.mem_base_cost + s.l1_miss_penalty + s.mem_penalty + s.ifetch_miss_penalty,
        }
    }

    /// Worst-case cycles to execute `op` once, *excluding* dispatch and
    /// instruction fetch (added per step) and excluding allocation zeroing
    /// and collections. `max_args` caps the argument-store burst a `Call`
    /// can trigger in the callee's prologue.
    fn op_cycles(&self, op: Op, max_args: f64) -> f64 {
        match op {
            Op::ConstI(_) | Op::ConstF(_) | Op::ConstNull | Op::Dup | Op::Pop | Op::Nop => self.int,
            Op::Swap => 2.0 * self.int,
            // Locals may live in memory (non-opt tiers).
            Op::Load(_) | Op::Store(_) => self.mem,
            Op::Add
            | Op::Sub
            | Op::Mul
            | Op::Div
            | Op::Rem
            | Op::Shl
            | Op::Shr
            | Op::And
            | Op::Or
            | Op::Xor
            | Op::Neg => self.int,
            Op::FAdd | Op::FSub | Op::FMul | Op::FDiv | Op::FNeg | Op::I2F | Op::F2I => self.fp,
            Op::Math(_) => self.math,
            Op::Lt | Op::Le | Op::Gt | Op::Ge | Op::Eq | Op::Ne | Op::IsNull => self.int,
            Op::Jump(_) | Op::BrTrue(_) | Op::BrFalse(_) => self.branch,
            // Call: 4 ops at the site + callee prologue arg stores.
            Op::Call(_) => 4.0 * self.int + max_args * self.mem,
            Op::Ret | Op::RetV => 3.0 * self.int,
            // New/NewArr admin (allocation zeroing is not bounded here);
            // New also pays the loader fast-path check.
            Op::New(_) => 4.0 * self.int,
            Op::NewArr(_) => 2.0 * self.int,
            Op::GetField(_) | Op::GetStatic(_) | Op::ArrLen => self.mem,
            // Stores may also run a write barrier (remembered-set probe
            // and insert: bounded by a few mem ops and ALU work).
            Op::PutField(_) | Op::PutStatic(_) => self.mem + 4.0 * self.mem + 8.0 * self.int,
            Op::ALoad => 2.0 * self.int + self.mem,
            Op::AStore => 2.0 * self.int + self.mem + 4.0 * self.mem + 8.0 * self.int,
        }
    }

    /// Worst-case cycles for one interpreter step of `op`: dispatch at
    /// the slowest tier, an instruction fetch (charged every step here,
    /// though the VM fetches every eighth), and the op itself.
    fn step_cycles(&self, op: Op, max_args: f64) -> f64 {
        f64::from(UNCOMPILED_DISPATCH_OPS) * self.int + self.mem + self.op_cycles(op, max_args)
    }
}

/// Compute the per-method bounds of `program` on `platform`.
///
/// The caller is expected to have verified the program first (the CFG
/// walk assumes structural validity), with [`crate::verify_program`].
pub fn bound_program(program: &Program, platform: PlatformKind) -> ProgramBound {
    let cost = CostModel::of(platform);
    let freq_hz = CpuSpec::of(platform).freq_hz;
    let p_max = p_max_watts(platform);
    let max_args = f64::from(
        program
            .methods()
            .iter()
            .map(|m| u32::from(m.n_args()))
            .max()
            .unwrap_or(0),
    );
    let methods = program
        .methods()
        .iter()
        .map(|m| {
            let cfg = Cfg::new(m);
            let (cyclic, order) = cfg.cycle_and_order();
            let acyclic_cycles = if cyclic {
                None
            } else {
                Some(longest_path(&cfg, &order, |pc| {
                    cost.step_cycles(m.code()[pc], max_args)
                }))
            };
            MethodBound {
                method: m.id(),
                name: m.name().to_owned(),
                ops: m.code().len(),
                blocks: cfg.blocks().len(),
                cyclic,
                acyclic_cycles,
                acyclic_energy_j: acyclic_cycles.map(|c| p_max * c / freq_hz),
            }
        })
        .collect();
    ProgramBound {
        p_max_w: p_max,
        freq_hz,
        methods,
    }
}

/// Longest weighted path from the entry block over an acyclic CFG given
/// in topological order; weights are per-instruction costs.
fn longest_path(cfg: &Cfg, topo: &[usize], op_cost: impl Fn(usize) -> f64) -> f64 {
    let mut best = vec![f64::NEG_INFINITY; cfg.blocks().len()];
    if topo.is_empty() {
        return 0.0;
    }
    best[topo[0]] = 0.0;
    let mut overall = 0.0f64;
    for &b in topo {
        if best[b] == f64::NEG_INFINITY {
            continue; // unreachable
        }
        let block = &cfg.blocks()[b];
        let weight: f64 = block.range().map(&op_cost).sum();
        let out = best[b] + weight;
        overall = overall.max(out);
        for &s in &block.succs {
            if out > best[s] {
                best[s] = out;
            }
        }
    }
    overall
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmprobe_bytecode::ProgramBuilder;

    #[test]
    fn p_max_exceeds_idle_on_both_platforms() {
        for p in [PlatformKind::PentiumM, PlatformKind::Pxa255] {
            let c = PowerCoeffs::of(p);
            let pm = p_max_watts(p);
            assert!(pm.is_finite());
            assert!(pm > c.cpu_idle_w + c.dram_idle_w);
        }
    }

    #[test]
    fn looping_methods_have_no_invocation_bound() {
        let mut p = ProgramBuilder::new();
        let main = p.function("main", 0, 2, |b| {
            b.const_i(0).store(0);
            b.for_range(1, 0, 100, |b| {
                b.load(0).load(1).add().store(0);
            });
            b.load(0).ret_value();
        });
        let prog = p.finish(main).unwrap();
        let bound = bound_program(&prog, PlatformKind::PentiumM);
        assert!(bound.methods[0].cyclic);
        assert!(bound.methods[0].acyclic_cycles.is_none());
        assert!(bound.methods[0].acyclic_energy_j.is_none());
    }

    #[test]
    fn acyclic_method_bound_covers_the_longest_branch() {
        let mut p = ProgramBuilder::new();
        let main = p.function("main", 0, 1, |b| {
            b.const_i(1);
            b.if_else(
                |b| {
                    // Expensive arm: a math intrinsic.
                    b.const_f(2.0).math(vmprobe_bytecode::MathFn::Sqrt).pop();
                },
                |b| {
                    b.nop();
                },
            );
            b.ret();
        });
        let prog = p.finish(main).unwrap();
        let bound = bound_program(&prog, PlatformKind::PentiumM);
        let m = &bound.methods[0];
        assert!(!m.cyclic);
        let cycles = m.acyclic_cycles.unwrap();
        // Must cover at least the math op of the expensive arm.
        let math = CpuSpec::of(PlatformKind::PentiumM).math_cost;
        assert!(cycles > math, "longest path {cycles} must include {math}");
        let joules = m.acyclic_energy_j.unwrap();
        assert!((joules - bound.p_max_w * cycles / bound.freq_hz).abs() <= 1e-18);
    }
}
