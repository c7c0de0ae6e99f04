//! Virtual-machine component identifiers.

use serde::{Deserialize, Serialize};

/// The software components the instrumentation distinguishes.
///
/// Jikes-style runs use `BaseCompiler`/`OptCompiler` plus `Controller` and
/// `Scheduler`; Kaffe-style runs use `JitCompiler`. Everything that is not
/// an instrumented VM service is `Application` (the paper's "App"/mutator),
/// and `Idle` denotes nothing scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ComponentId {
    /// The running Java application (mutator).
    Application,
    /// Garbage collector.
    Gc,
    /// Class loader (including verification).
    ClassLoader,
    /// Jikes-style baseline compiler.
    BaseCompiler,
    /// Jikes-style optimizing compiler.
    OptCompiler,
    /// Kaffe-style just-in-time compiler.
    JitCompiler,
    /// Thread scheduler.
    Scheduler,
    /// Jikes-style adaptive-optimization controller thread.
    Controller,
    /// Nothing scheduled.
    Idle,
    /// Attribution bucket for samples whose port read glitched to a value
    /// that names no component (fault injection / hardware noise). Appended
    /// last so the dense indices of the real components stay stable.
    Spurious,
}

impl ComponentId {
    /// All identifiers, in display order.
    pub const ALL: [ComponentId; 10] = [
        ComponentId::Application,
        ComponentId::Gc,
        ComponentId::ClassLoader,
        ComponentId::BaseCompiler,
        ComponentId::OptCompiler,
        ComponentId::JitCompiler,
        ComponentId::Scheduler,
        ComponentId::Controller,
        ComponentId::Idle,
        ComponentId::Spurious,
    ];

    /// Dense index for table storage.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Decode a raw register byte as the DAQ would: bytes that name a real
    /// component resolve to it (a *stale* read attributes to the wrong
    /// component); anything else is rejected as `None` and callers bucket
    /// the sample under [`ComponentId::Spurious`].
    pub const fn from_raw(raw: u8) -> Option<ComponentId> {
        // `Spurious` itself is not a valid wire value: it only exists as an
        // attribution bucket, so `ALL.len() - 1` excludes it.
        if (raw as usize) < Self::ALL.len() - 1 {
            Some(Self::ALL[raw as usize])
        } else {
            None
        }
    }

    /// Short label matching the paper's figure legends.
    pub const fn label(self) -> &'static str {
        match self {
            ComponentId::Application => "App",
            ComponentId::Gc => "GC",
            ComponentId::ClassLoader => "CL",
            ComponentId::BaseCompiler => "base_comp",
            ComponentId::OptCompiler => "opt_comp",
            ComponentId::JitCompiler => "JIT",
            ComponentId::Scheduler => "sched",
            ComponentId::Controller => "ctrl",
            ComponentId::Idle => "idle",
            ComponentId::Spurious => "spurious",
        }
    }

    /// The component whose [`Self::label`] is `label`.
    pub fn from_label(label: &str) -> Option<ComponentId> {
        Self::ALL.into_iter().find(|c| c.label() == label)
    }

    /// Whether the component counts toward "JVM energy" in the paper's
    /// decomposition (everything the VM does on the application's behalf,
    /// as opposed to the application itself).
    pub const fn is_vm_service(self) -> bool {
        !matches!(
            self,
            ComponentId::Application | ComponentId::Idle | ComponentId::Spurious
        )
    }
}

impl std::fmt::Display for ComponentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_unique() {
        for (i, c) in ComponentId::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn vm_service_classification() {
        assert!(ComponentId::Gc.is_vm_service());
        assert!(ComponentId::OptCompiler.is_vm_service());
        assert!(!ComponentId::Application.is_vm_service());
        assert!(!ComponentId::Idle.is_vm_service());
    }

    #[test]
    fn raw_decoding_rejects_out_of_range_values() {
        assert_eq!(ComponentId::from_raw(0), Some(ComponentId::Application));
        assert_eq!(ComponentId::from_raw(8), Some(ComponentId::Idle));
        assert_eq!(
            ComponentId::from_raw(9),
            None,
            "Spurious is not a wire value"
        );
        assert_eq!(ComponentId::from_raw(0xFF), None);
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(ComponentId::Gc.label(), "GC");
        assert_eq!(ComponentId::ClassLoader.label(), "CL");
        assert_eq!(ComponentId::OptCompiler.to_string(), "opt_comp");
    }
}
