//! Benchmark blueprints: declarative resource profiles turned into
//! executable programs.

use serde::{Deserialize, Serialize};
use vmprobe_bytecode::{ArrKind, Program, ProgramBuilder, Ty};

use crate::synth;

/// Input-set scaling, mirroring the paper's use of SpecJVM98 `-s100` on
/// the P6 and `-s10` on the memory-constrained PXA255 board.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InputScale {
    /// Full data set (`-s100` / DaCapo default / JGF size A).
    Full,
    /// Reduced data set (`-s10`): an eighth of the phase work and a
    /// quarter of the live set.
    Reduced,
}

impl InputScale {
    /// The short name the CLI, the serve wire and the cache use: `full` or
    /// `s10`.
    pub fn name(self) -> &'static str {
        match self {
            InputScale::Full => "full",
            InputScale::Reduced => "s10",
        }
    }

    /// The scale a [`Self::name`] names.
    pub fn from_name(name: &str) -> Option<Self> {
        [InputScale::Full, InputScale::Reduced]
            .into_iter()
            .find(|s| s.name() == name)
    }

    fn phase_div(self) -> u32 {
        match self {
            InputScale::Full => 1,
            InputScale::Reduced => 8,
        }
    }

    fn live_div(self) -> u32 {
        match self {
            InputScale::Full => 1,
            InputScale::Reduced => 4,
        }
    }
}

/// The resource profile a benchmark program is generated from.
///
/// All counts are per the *simulated* scale (`SIM_SCALE = 1/8` of paper
/// sizes). The interesting axes:
///
/// * `lists_per_phase`/`nodes_per_list`/`trees`/`tree_depth` — short- and
///   medium-lived allocation volume (GC load);
/// * `live_records`/`record_payload_words` — long-lived live set (copy
///   cost, heap pressure);
/// * `queries_per_phase`/`query_walk` — pointer-chasing intensity over the
///   live set (locality sensitivity, GC-vs-heap crossovers);
/// * `int_iters`/`fp_iters`/`math_every` — compute mix (IPC, power, PXA255
///   software-float penalty);
/// * `hot_kernels` — distinct hot methods (adaptive-compiler activity);
/// * `app_classes`/`class_padding` — class-count and class-file footprint
///   (class-loader cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Blueprint {
    /// Benchmark phases (outer iterations).
    pub phases: u32,
    /// Linked lists churned per phase.
    pub lists_per_phase: u32,
    /// Nodes per churned list.
    pub nodes_per_list: u32,
    /// Binary trees built and dropped per phase.
    pub trees_per_phase: u32,
    /// Depth of each churn tree.
    pub tree_depth: u32,
    /// Records in the long-lived store.
    pub live_records: u32,
    /// Payload words per record.
    pub record_payload_words: u32,
    /// Store probes per phase.
    pub queries_per_phase: u32,
    /// Payload words read per probe.
    pub query_walk: u32,
    /// Integer-kernel iterations per phase.
    pub int_iters: u32,
    /// Floating-point-kernel iterations per phase (split across
    /// `hot_kernels` clones).
    pub fp_iters: u32,
    /// Call a math intrinsic every N fp iterations (0 = never).
    pub math_every: u32,
    /// Number of distinct hot kernel methods.
    pub hot_kernels: u32,
    /// Application classes beyond the data classes.
    pub app_classes: u32,
    /// Class-file padding bytes per application class.
    pub class_padding: u32,
    /// Words in the static integer work array.
    pub work_array_words: u32,
}

impl Default for Blueprint {
    fn default() -> Self {
        Self {
            phases: 8,
            lists_per_phase: 20,
            nodes_per_list: 500,
            trees_per_phase: 0,
            tree_depth: 8,
            live_records: 500,
            record_payload_words: 4,
            queries_per_phase: 2_000,
            query_walk: 2,
            int_iters: 20_000,
            fp_iters: 0,
            math_every: 0,
            hot_kernels: 3,
            app_classes: 20,
            class_padding: 600,
            work_array_words: 4_096,
        }
    }
}

impl Blueprint {
    /// Estimated bytes allocated over a full-scale run (churn + trees +
    /// store), for inventory reports.
    pub fn est_alloc_bytes(&self) -> u64 {
        let node = 32u64;
        let tree_node = 40u64;
        let churn = u64::from(self.phases)
            * u64::from(self.lists_per_phase)
            * u64::from(self.nodes_per_list)
            * node;
        let trees = u64::from(self.phases)
            * u64::from(self.trees_per_phase)
            * ((1u64 << self.tree_depth) - 1)
            * tree_node;
        let store =
            u64::from(self.live_records) * (40 + 16 + 8 * u64::from(self.record_payload_words));
        churn + trees + store
    }

    /// Estimated live-set bytes (the record store).
    pub fn est_live_bytes(&self) -> u64 {
        u64::from(self.live_records) * (40 + 16 + 8 * u64::from(self.record_payload_words))
    }
}

/// Generate the executable program for `bp` at `scale`.
pub fn build_program(bp: &Blueprint, scale: InputScale) -> Program {
    let pd = scale.phase_div();
    let ld = scale.live_div();
    let phases = (bp.phases / pd).max(1);
    let live_records = (bp.live_records / ld).max(16);
    let queries = (bp.queries_per_phase / pd.min(2)).max(1);
    let int_iters = bp.int_iters / pd.min(4);
    let fp_iters = bp.fp_iters / pd.min(4);
    // A probe can never walk past the payload it probes.
    let query_walk = bp.query_walk.min(bp.record_payload_words);

    let mut p = ProgramBuilder::new();
    let lib = synth::stdlib(&mut p, 2_000);
    let node = synth::define_node(&mut p);
    let record = synth::define_record(&mut p);
    let tree = synth::define_tree(&mut p);

    // Application classes (drive class-loader cost); instantiated once at
    // startup like class initializers running.
    let mut app_classes = Vec::new();
    for i in 0..bp.app_classes {
        app_classes.push(
            p.class(format!("app/Module{i}"))
                .field("state", Ty::Ref)
                .field("id", Ty::Int)
                .classfile_padding(bp.class_padding)
                .build(),
        );
    }

    let store = p.static_slot("store", Ty::Ref);
    let seed = p.static_slot("seed", Ty::Int);
    let chk = p.static_slot("checksum", Ty::Int);
    let work = p.static_slot("work", Ty::Ref);

    let build_list = synth::build_list_method(&mut p, node);
    let churn = synth::churn_method(&mut p, node, build_list);
    let build_tree = synth::build_tree_method(&mut p, tree);
    let build_store = synth::build_store_method(&mut p, record, store);
    let query = synth::query_method(&mut p, record, store, seed, chk);
    let int_kernel = synth::int_kernel_method(&mut p, "int_kernel", work, chk);
    let mut fp_kernels = Vec::new();
    for k in 0..bp.hot_kernels.max(1) {
        fp_kernels.push(synth::fp_kernel_method(
            &mut p,
            &format!("fp_kernel_{k}"),
            bp.math_every,
            chk,
        ));
    }

    let app_init = {
        let classes = app_classes.clone();
        let work_words = bp.work_array_words;
        p.function("app_init", 0, 1, move |b| {
            for &c in &classes {
                b.new_obj(c).store(0);
            }
            b.const_i(i64::from(work_words))
                .new_arr(ArrKind::Int)
                .put_static(work);
            b.const_i(0x5eed_5eed).put_static(seed);
            b.const_i(0).put_static(chk);
            b.ret();
        })
    };

    let bp2 = *bp;
    let fp_clones = fp_kernels.clone();
    let main = p.function("main", 0, 1, move |b| {
        b.call(lib.init);
        b.call(app_init);
        b.const_i(i64::from(live_records))
            .const_i(i64::from(bp2.record_payload_words))
            .call(build_store);
        b.for_range(0, 0, i64::from(phases), move |b| {
            if bp2.lists_per_phase > 0 {
                b.const_i(i64::from(bp2.lists_per_phase))
                    .const_i(i64::from(bp2.nodes_per_list))
                    .call(churn);
            }
            for _ in 0..bp2.trees_per_phase {
                b.const_i(i64::from(bp2.tree_depth)).call(build_tree).pop();
            }
            if queries > 0 {
                b.const_i(i64::from(queries))
                    .const_i(i64::from(query_walk))
                    .call(query);
            }
            if int_iters > 0 {
                b.const_i(i64::from(int_iters)).call(int_kernel);
            }
            if fp_iters > 0 {
                let per = i64::from(fp_iters / fp_clones.len() as u32);
                for &fk in &fp_clones {
                    b.const_i(per).call(fk);
                }
            }
        });
        b.get_static(chk).ret_value();
    });

    p.finish(main).expect("generated benchmark must verify")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_blueprint_builds_and_runs_shape() {
        let bp = Blueprint::default();
        let p = build_program(&bp, InputScale::Reduced);
        assert!(p.class_count() > 40);
        assert!(p.total_classfile_bytes() > 30_000);
    }

    #[test]
    fn estimates_scale_with_parameters() {
        let small = Blueprint::default();
        let big = Blueprint {
            nodes_per_list: 5_000,
            ..small
        };
        assert!(big.est_alloc_bytes() > small.est_alloc_bytes());
        let fat = Blueprint {
            live_records: 50_000,
            ..small
        };
        assert!(fat.est_live_bytes() > small.est_live_bytes());
    }

    #[test]
    fn reduced_scale_shrinks_the_program_work() {
        // Reduced inputs divide phases; the program still verifies.
        let bp = Blueprint {
            phases: 16,
            ..Blueprint::default()
        };
        let full = build_program(&bp, InputScale::Full);
        let reduced = build_program(&bp, InputScale::Reduced);
        // Same structure, different constants.
        assert_eq!(full.method_count(), reduced.method_count());
    }
}
