//! The compilation subsystem: baseline, JIT and optimizing tiers plus the
//! adaptive-optimization controller.
//!
//! Jikes RVM (paper Section IV-A): a method's first execution goes through
//! a *fast but simple baseline compiler*; the adaptive system later marks
//! hot methods and recompiles them at higher optimization levels on a
//! separate compiler thread, coordinated by a controller thread. Kaffe: a
//! one-shot JIT "translates opcodes to native instructions without
//! performing extensive code optimizations" — cheap compiles, slower code,
//! longer benchmark runtimes (Section VI-D).
//!
//! Compilation cost scales with method bytecode size; compiled-code quality
//! is modeled as the per-bytecode dispatch overhead and whether locals
//! live in memory or registers, which the register engine charges per
//! frame (see `rir`).

use std::collections::VecDeque;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use vmprobe_bytecode::{MethodId, Program};
use vmprobe_platform::{Exec, CODE_BASE, VM_BASE};

use crate::rir::{lower, RirBody};
use crate::Meter;

/// Dispatch work per bytecode a not-yet-compiled method executes: the
/// costliest tier's dispatch, in integer µops.
const UNCOMPILED_OPS_PER_BYTECODE: u32 = 8;
/// Jikes RVM baseline compilation work per bytecode byte, in integer µops.
const BASE_OPS_PER_BYTE: u32 = 80;
/// Kaffe JIT translation work per bytecode byte, in integer µops.
const JIT_OPS_PER_BYTE: u32 = 140;
/// Jikes RVM optimizing compilation work per bytecode byte, in integer
/// µops.
const OPT_OPS_PER_BYTE: u32 = 2_200;

/// Compilation state of a method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Tier {
    /// Never executed yet.
    Uncompiled,
    /// Jikes baseline-compiled: correct but slow code.
    Baseline,
    /// Kaffe JIT-translated: comparable to baseline quality.
    Jit,
    /// Jikes optimizing-compiler output: registers for locals, minimal
    /// dispatch overhead.
    Opt,
}

impl Tier {
    /// Extra integer µops charged per executed bytecode (dispatch, frame
    /// bookkeeping) at this tier.
    ///
    /// Frames snapshot their tier at invocation: an activation already
    /// executing when the controller promotes its method keeps charging
    /// the old tier's dispatch for the rest of that
    /// activation. This models the lack of on-stack replacement — Jikes
    /// RVM's adaptive system in the paper's configuration swaps code at
    /// the *next* invocation, not mid-activation — and is pinned by the
    /// `promotion_mid_activation_keeps_the_old_tier` test.
    pub const fn dispatch_ops(self) -> u32 {
        match self {
            Tier::Uncompiled => UNCOMPILED_OPS_PER_BYTECODE, // interpreted fallback
            Tier::Baseline | Tier::Jit => 2,
            Tier::Opt => 0,
        }
    }

    /// Whether local-variable accesses touch stack memory (true) or are
    /// register-allocated (false).
    pub const fn locals_in_memory(self) -> bool {
        !matches!(self, Tier::Opt)
    }

    /// Code-size expansion from bytecode bytes to native bytes.
    pub const fn code_expansion(self) -> u32 {
        match self {
            Tier::Uncompiled => 1,
            Tier::Baseline => 8,
            Tier::Jit => 7,
            Tier::Opt => 5,
        }
    }
}

/// Compiler working-set base (IR, tables) — fits L2, misses L1.
const COMPILER_WORK_BASE: u64 = VM_BASE + 0x0080_0000;
const COMPILER_WORK_SET: u64 = 192 << 10;

/// Runtime state of one method.
#[derive(Debug, Clone, Copy)]
pub struct MethodRuntime {
    /// Current code tier.
    pub tier: Tier,
    /// Weighted invocation + back-edge count the controller inspects.
    pub hotness: u64,
    /// Address of the compiled body in the code region.
    pub code_addr: u64,
    /// Whether the method is already queued for optimizing recompilation.
    pub queued: bool,
}

/// Counters for the compilation subsystem.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompilerStats {
    /// Methods baseline-compiled.
    pub baseline_compiles: u64,
    /// Methods JIT-translated.
    pub jit_compiles: u64,
    /// Methods recompiled by the optimizing compiler.
    pub opt_compiles: u64,
    /// Bytecode bytes pushed through any compiler.
    pub bytes_compiled: u64,
}

/// The compilation subsystem shared by all tiers.
#[derive(Debug, Clone)]
pub struct CompilerSubsystem {
    methods: Vec<MethodRuntime>,
    code_cursor: u64,
    /// Lowered register bodies, produced at each method's first compile
    /// (`None` until then). A body serves every tier: tiers differ only
    /// in what the engine charges for it.
    rir: Vec<Option<Arc<RirBody>>>,
    /// Methods awaiting the optimizing compiler thread.
    pub opt_queue: VecDeque<MethodId>,
    /// Counters.
    pub stats: CompilerStats,
}

impl CompilerSubsystem {
    /// Initialize state for every method of `program`.
    pub fn new(program: &Program) -> Self {
        Self {
            methods: vec![
                MethodRuntime {
                    tier: Tier::Uncompiled,
                    hotness: 0,
                    code_addr: 0,
                    queued: false,
                };
                program.method_count()
            ],
            code_cursor: CODE_BASE,
            rir: vec![None; program.method_count()],
            opt_queue: VecDeque::new(),
            stats: CompilerStats::default(),
        }
    }

    /// The lowered register body of `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` has not been compiled yet.
    pub(crate) fn rir_body(&self, m: MethodId) -> Arc<RirBody> {
        Arc::clone(self.rir[m.0 as usize].as_ref().expect("method compiled"))
    }

    /// Lower `m` to the register IR (its first compile).
    fn lower(&mut self, program: &Program, m: MethodId) {
        self.rir[m.0 as usize] = Some(Arc::new(lower(program, program.method(m))));
    }

    /// Runtime state of `m`.
    pub fn method(&self, m: MethodId) -> &MethodRuntime {
        &self.methods[m.0 as usize]
    }

    /// Mutable runtime state of `m` (hotness bumps from the interpreter).
    #[inline]
    pub fn method_mut(&mut self, m: MethodId) -> &mut MethodRuntime {
        &mut self.methods[m.0 as usize]
    }

    fn charge_compile(&mut self, meter: &mut Meter, bytes: u32, ops_per_byte: u32) {
        // Compiler inner loops: ALU-dense with a working set that lives in
        // L2 — app-like IPC, hence the relatively high compiler power the
        // paper observes.
        let mut remaining = u64::from(bytes) * u64::from(ops_per_byte);
        let mut touch = 0u64;
        while remaining > 0 {
            let chunk = remaining.min(96) as u32;
            meter.int_ops(chunk);
            meter.load(COMPILER_WORK_BASE + (touch * 64) % COMPILER_WORK_SET);
            if touch.is_multiple_of(4) {
                meter.store(COMPILER_WORK_BASE + (touch * 128 + 32) % COMPILER_WORK_SET);
            }
            touch += 1;
            remaining -= u64::from(chunk);
        }
    }

    fn install_code(&mut self, meter: &mut Meter, m: MethodId, bytes: u32, tier: Tier) {
        let size = bytes * tier.code_expansion();
        let addr = self.code_cursor;
        self.code_cursor += u64::from(size) + 64;
        meter.stream_write(addr, size);
        let rt = &mut self.methods[m.0 as usize];
        rt.tier = tier;
        rt.code_addr = addr;
    }

    /// Baseline-compile `m` (charged to the caller's current component;
    /// the VM brackets this with `BaseCompiler`).
    pub fn baseline_compile(&mut self, program: &Program, m: MethodId, meter: &mut Meter) {
        self.lower(program, m);
        let bytes = program.method(m).bytecode_bytes();
        self.charge_compile(meter, bytes, BASE_OPS_PER_BYTE);
        self.install_code(meter, m, bytes, Tier::Baseline);
        self.stats.baseline_compiles += 1;
        self.stats.bytes_compiled += u64::from(bytes);
    }

    /// JIT-translate `m` (Kaffe).
    pub fn jit_compile(&mut self, program: &Program, m: MethodId, meter: &mut Meter) {
        self.lower(program, m);
        let bytes = program.method(m).bytecode_bytes();
        self.charge_compile(meter, bytes, JIT_OPS_PER_BYTE);
        self.install_code(meter, m, bytes, Tier::Jit);
        self.stats.jit_compiles += 1;
        self.stats.bytes_compiled += u64::from(bytes);
    }

    /// Recompile `m` with the optimizing compiler (Jikes compiler thread).
    pub fn opt_compile(&mut self, program: &Program, m: MethodId, meter: &mut Meter) {
        let bytes = program.method(m).bytecode_bytes();
        self.charge_compile(meter, bytes, OPT_OPS_PER_BYTE);
        self.install_code(meter, m, bytes, Tier::Opt);
        self.stats.opt_compiles += 1;
        self.stats.bytes_compiled += u64::from(bytes);
    }
}

/// The Jikes adaptive-optimization controller.
///
/// Runs periodically on its own (scheduled) thread, scans method hotness
/// counters and queues methods that crossed the threshold for the
/// optimizing compiler. The paper measured the controller at under 1 % of
/// execution time; the scan cost here is correspondingly small.
#[derive(Debug, Clone, Copy, Default)]
pub struct Controller {
    /// Number of controller activations.
    pub activations: u64,
    /// Methods it has queued for recompilation.
    pub promotions: u64,
}

impl Controller {
    /// Scan counters, queueing hot baseline methods for optimization.
    pub fn scan(&mut self, subsystem: &mut CompilerSubsystem, threshold: u64, meter: &mut Meter) {
        self.activations += 1;
        let n = subsystem.methods.len();
        // Counter scan: a couple of ops per method plus a load per few.
        meter.int_ops(3 * n as u32 + 64);
        for i in 0..n {
            if i % 8 == 0 {
                meter.load(VM_BASE + (i as u64) * 8);
            }
            let rt = &mut subsystem.methods[i];
            if rt.tier == Tier::Baseline && !rt.queued && rt.hotness >= threshold {
                rt.queued = true;
                subsystem.opt_queue.push_back(MethodId(i as u32));
                self.promotions += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmprobe_bytecode::ProgramBuilder;
    use vmprobe_platform::PlatformKind;

    fn program_with_methods(n: usize) -> Program {
        let mut p = ProgramBuilder::new();
        let mut last = None;
        for i in 0..n {
            last = Some(p.function(format!("m{i}"), 0, 1, |b| {
                b.for_range(0, 0, 10, |b| {
                    b.nop();
                });
                b.ret();
            }));
        }
        p.finish(last.unwrap()).unwrap()
    }

    #[test]
    fn tiers_order_by_quality() {
        assert!(Tier::Uncompiled.dispatch_ops() > Tier::Baseline.dispatch_ops());
        assert!(Tier::Baseline.dispatch_ops() > Tier::Opt.dispatch_ops());
        assert!(Tier::Baseline.locals_in_memory());
        assert!(!Tier::Opt.locals_in_memory());
    }

    #[test]
    fn opt_compilation_is_much_more_expensive_than_baseline() {
        let prog = program_with_methods(2);
        let mut cs = CompilerSubsystem::new(&prog);
        let mut meter = Meter::new(PlatformKind::PentiumM, false);
        cs.baseline_compile(&prog, MethodId(0), &mut meter);
        let base_cost = meter.cycles();
        cs.opt_compile(&prog, MethodId(1), &mut meter);
        let opt_cost = meter.cycles() - base_cost;
        assert!(
            opt_cost > 10 * base_cost,
            "opt {opt_cost} should dwarf baseline {base_cost}"
        );
        assert_eq!(cs.method(MethodId(0)).tier, Tier::Baseline);
        assert_eq!(cs.method(MethodId(1)).tier, Tier::Opt);
        assert_ne!(
            cs.method(MethodId(0)).code_addr,
            cs.method(MethodId(1)).code_addr
        );
    }

    #[test]
    fn controller_queues_hot_methods_once() {
        let prog = program_with_methods(3);
        let mut cs = CompilerSubsystem::new(&prog);
        let mut meter = Meter::new(PlatformKind::PentiumM, false);
        cs.baseline_compile(&prog, MethodId(1), &mut meter);
        cs.method_mut(MethodId(1)).hotness = 10_000;
        let mut ctrl = Controller::default();
        ctrl.scan(&mut cs, 6_000, &mut meter);
        ctrl.scan(&mut cs, 6_000, &mut meter);
        assert_eq!(
            cs.opt_queue.len(),
            1,
            "queued exactly once despite two scans"
        );
        assert_eq!(ctrl.promotions, 1);
        assert_eq!(ctrl.activations, 2);
        // Uncompiled hot methods are not queued.
        cs.method_mut(MethodId(2)).hotness = 10_000;
        ctrl.scan(&mut cs, 6_000, &mut meter);
        assert_eq!(cs.opt_queue.len(), 1);
    }
}
