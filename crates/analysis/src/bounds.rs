//! Static worst-case cost and energy bounds.
//!
//! The runtime meter charges every operation to a cycle-accurate cost
//! model and integrates power over those cycles. This module computes the
//! *static* counterpart: an upper bound on the cycles — and therefore the
//! energy — a program can consume, derived purely from its structure plus
//! a step budget `S` for loops.
//!
//! # Soundness argument (summary; full version in DESIGN.md §14)
//!
//! Measured energy is `∫ P dt ≤ P_max · T`, where `P_max` bounds the
//! instantaneous CPU+DRAM power of the platform's calibrated model at its
//! saturation clips (IPC 1.15, FP rate 0.5/cycle, memory rate
//! `freq / mem_base_cost`), and `T = C / freq` for total cycles `C`. So a
//! sound cycle bound yields a sound energy bound. Cycles split into
//!
//! * **class loading** — every class loaded once, cost proportional to
//!   its class-file bytes (the loader's parse/verify/install phases);
//! * **compilation** — every method compiled once per tier it can reach
//!   (baseline *and* opt for Jikes, JIT for Kaffe), cost proportional to
//!   its bytecode bytes at the most expensive per-byte rate;
//! * **interpretation** — at most `S` bytecode steps (the VM's step
//!   clamp), each costing at most the program's worst single-step cost,
//!   computed from the opcode inventory actually present;
//! * **allocation & GC** — at most `S` allocation sites execute; each
//!   can zero at most a heap-sized object and trigger at most two
//!   collections (the VM's retry loop aborts with `OutOfMemory` after
//!   two), each collection touching at most the whole heap;
//! * **scheduler quanta** — one quantum of bookkeeping per
//!   `quantum_cycles` of the above, folded in as a multiplier.
//!
//! Every per-unit constant is an upper bound on the corresponding meter
//! charge, so each term dominates its dynamic counterpart and the total
//! dominates the measured energy of *any* run clamped at `S` steps. The
//! bound is deliberately loose (documented term by term in DESIGN.md);
//! the `analyze-gate` CI job cross-checks domination against measured
//! energy on every golden workload, which also catches drift between
//! this module's per-op cycle terms and the VM's real cost model. The
//! power clips and the VM's per-byte work counts cannot drift: the bound
//! reads the very constants the meter and the VM charge.
//!
//! Per-method bounds report the longest weighted acyclic path through the
//! method's own CFG (callee cost excluded); methods with loops carry no
//! finite per-invocation bound and are covered by the step-clamped
//! program bound instead.

use vmprobe_bytecode::{MethodId, Op, Program};
use vmprobe_platform::{
    CpuSpec, PlatformKind, BASE_OPS_PER_BYTE, JIT_OPS_PER_BYTE, OPT_OPS_PER_BYTE,
    PARSE_OPS_PER_BYTE, UNCOMPILED_DISPATCH_OPS, VERIFY_OPS_PER_BYTE,
};
use vmprobe_power::{PowerCoeffs, FP_SATURATION, IPC_SATURATION};

use crate::cfg::Cfg;

/// Which personality's compilation tiers to account for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmTier {
    /// Jikes RVM: baseline on first call, opt recompilation possible.
    Jikes,
    /// Kaffe: JIT on first call, no recompilation.
    Kaffe,
}

/// Inputs the bound is computed against.
#[derive(Debug, Clone, Copy)]
pub struct BoundParams {
    /// Hardware platform (timing and power calibration).
    pub platform: PlatformKind,
    /// Which VM's compilation tiers to bound.
    pub vm: VmTier,
    /// Simulated heap bytes (bounds per-collection and per-alloc work).
    pub heap_bytes: u64,
    /// Scheduler quantum in cycles.
    pub quantum_cycles: u64,
    /// Step budget `S`: the bound is sound for any run the VM clamps at
    /// `S` bytecode steps or fewer.
    pub step_budget: u64,
}

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

/// Program-wide static bound.
#[derive(Debug, Clone)]
pub struct ProgramBound {
    /// Peak modeled CPU+DRAM power in watts.
    pub p_max_w: f64,
    /// Clock the cycle bound is converted at.
    pub freq_hz: f64,
    /// Cycle bound on class loading (all classes once).
    pub classload_cycles: f64,
    /// Cycle bound on compilation (all methods, all reachable tiers).
    pub compile_cycles: f64,
    /// Cycle bound on interpreting `S` steps.
    pub interpret_cycles: f64,
    /// Cycle bound on allocation zeroing and garbage collection.
    pub gc_cycles: f64,
    /// Multiplier folding in per-quantum scheduler/controller work.
    pub quantum_multiplier: f64,
    /// Cycle bound excluding the GC term (the tight-ish part).
    pub core_cycles: f64,
    /// Total cycle bound.
    pub total_cycles: f64,
    /// Energy bound excluding the GC term, in joules.
    pub core_energy_j: f64,
    /// Total energy bound in joules.
    pub total_energy_j: f64,
    /// The step budget the bound was instantiated at.
    pub step_budget: u64,
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
    /// instruction fetch (added per step) and excluding allocation/GC
    /// work (bounded separately). `max_args` caps the argument-store
    /// burst a `Call` can trigger in the callee's prologue.
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
            // New/NewArr admin (allocation zeroing is in the GC term);
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

/// Compute the static bound for `program` under `params`.
///
/// The caller is expected to have verified the program first (the CFG
/// walk assumes structural validity); [`crate::verify_program`] does
/// both tiers.
pub fn bound_program(program: &Program, params: &BoundParams) -> ProgramBound {
    let cost = CostModel::of(params.platform);
    let spec = CpuSpec::of(params.platform);
    let p_max = p_max_watts(params.platform);
    let s = params.step_budget as f64;
    let heap = params.heap_bytes as f64;

    let max_args = f64::from(
        program
            .methods()
            .iter()
            .map(|m| u32::from(m.n_args()))
            .max()
            .unwrap_or(0),
    );

    // Worst single-step cost over the opcode inventory actually present.
    let mut worst_step = 0.0f64;
    for m in program.methods() {
        for &op in m.code() {
            worst_step = worst_step.max(cost.step_cycles(op, max_args));
        }
    }

    // Class loading: stream the file, parse + verify (5 ops/byte with an
    // ifetch per 48-op chunk), write metadata. Charging one worst-case
    // memory access per byte dominates the line-granular streaming.
    let total_file_bytes = program.total_classfile_bytes() as f64;
    let loader_ops_per_byte = f64::from(PARSE_OPS_PER_BYTE + VERIFY_OPS_PER_BYTE);
    let classload_cycles = total_file_bytes
        * (cost.mem + loader_ops_per_byte * (cost.int + cost.mem / 48.0))
        + program.class_count() as f64 * (384.0 * cost.mem + 64.0 * cost.int);

    // Compilation: every method, once per tier its personality can
    // reach. Per compiled op: the ALU work plus amortized load/store
    // traffic (one load per 96-op chunk, one store per 4 ops) — charging
    // a full memory access per op dominates. Code installation streams
    // `bytes × expansion ≤ 8` into the code region.
    let ops_per_byte = match params.vm {
        VmTier::Jikes => f64::from(BASE_OPS_PER_BYTE + OPT_OPS_PER_BYTE),
        VmTier::Kaffe => f64::from(JIT_OPS_PER_BYTE),
    };
    let total_code_bytes: f64 = program
        .methods()
        .iter()
        .map(|m| f64::from(m.bytecode_bytes()))
        .sum();
    let compile_cycles =
        total_code_bytes * (ops_per_byte * (cost.int + cost.mem / 4.0) + 8.0 * cost.mem);

    // Interpretation: S steps, each at the program's worst step cost.
    let interpret_cycles = s * worst_step;

    // Allocation and GC: each of the ≤ S allocating steps can zero at
    // most a heap-sized object and force at most two collections, each
    // touching at most every heap byte (mark/copy/sweep). One worst-case
    // memory access per byte dominates any collector's per-byte work.
    let gc_cycles = s * 3.0 * heap * cost.mem;

    // Scheduler quanta: one per `quantum_cycles`, each costing the timer
    // tick (350 int ops + 2 accesses) plus a controller scan bounded by
    // the method count. Folded in as a multiplier on everything above.
    let n_methods = program.method_count() as f64;
    let quantum_overhead = 350.0 * cost.int
        + 2.0 * cost.mem
        + (3.0 * n_methods + 64.0) * cost.int
        + n_methods * cost.mem;
    let q = params.quantum_cycles as f64;
    let quantum_multiplier = if quantum_overhead < q {
        q / (q - quantum_overhead)
    } else {
        // Degenerate configuration: overhead swamps the quantum. Keep
        // the bound finite by charging one full overhead per work cycle.
        1.0 + quantum_overhead
    };

    let core = (classload_cycles + compile_cycles + interpret_cycles + quantum_overhead)
        * quantum_multiplier;
    let total =
        (classload_cycles + compile_cycles + interpret_cycles + gc_cycles + quantum_overhead)
            * quantum_multiplier;

    let to_joules = |cycles: f64| p_max * cycles / spec.freq_hz;

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
                acyclic_energy_j: acyclic_cycles.map(to_joules),
            }
        })
        .collect();

    ProgramBound {
        p_max_w: p_max,
        freq_hz: spec.freq_hz,
        classload_cycles,
        compile_cycles,
        interpret_cycles,
        gc_cycles,
        quantum_multiplier,
        core_cycles: core,
        total_cycles: total,
        core_energy_j: to_joules(core),
        total_energy_j: to_joules(total),
        step_budget: params.step_budget,
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

    fn params() -> BoundParams {
        BoundParams {
            platform: PlatformKind::PentiumM,
            vm: VmTier::Jikes,
            heap_bytes: 1 << 20,
            quantum_cycles: 1_600_000,
            step_budget: 10_000,
        }
    }

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
    fn bound_is_finite_and_positive() {
        let mut p = ProgramBuilder::new();
        let main = p.function("main", 0, 2, |b| {
            b.const_i(0).store(0);
            b.for_range(1, 0, 100, |b| {
                b.load(0).load(1).add().store(0);
            });
            b.load(0).ret_value();
        });
        let prog = p.finish(main).unwrap();
        let bound = bound_program(&prog, &params());
        assert!(bound.total_cycles.is_finite());
        assert!(bound.total_energy_j.is_finite());
        assert!(bound.total_energy_j > 0.0);
        assert!(bound.total_cycles >= bound.core_cycles);
        assert!(bound.quantum_multiplier >= 1.0);
        // The lone method loops, so it has no finite invocation bound.
        assert!(bound.methods[0].cyclic);
        assert!(bound.methods[0].acyclic_cycles.is_none());
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
        let bound = bound_program(&prog, &params());
        let m = &bound.methods[0];
        assert!(!m.cyclic);
        let cycles = m.acyclic_cycles.unwrap();
        // Must cover at least the math op of the expensive arm.
        let math = CpuSpec::of(PlatformKind::PentiumM).math_cost;
        assert!(cycles > math, "longest path {cycles} must include {math}");
    }

    #[test]
    fn bound_grows_with_step_budget() {
        let mut p = ProgramBuilder::new();
        let main = p.function("main", 0, 0, |b| {
            b.ret();
        });
        let prog = p.finish(main).unwrap();
        let small = bound_program(&prog, &params());
        let big = bound_program(
            &prog,
            &BoundParams {
                step_budget: 1_000_000,
                ..params()
            },
        );
        assert!(big.total_cycles > small.total_cycles);
        assert!(big.interpret_cycles > small.interpret_cycles);
    }
}
