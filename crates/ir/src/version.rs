//! The live-upgrade version registry shared by both engines.
//!
//! A deployment starts with one `(graph, runner)` pair at
//! [`crate::event::INITIAL_VERSION`]. A redeploy inserts the next version's
//! pair *before* the engine's switchover protocol runs, so execution sites
//! (workers, remote function workers) can resolve any in-flight
//! [`crate::Invocation`] by its pinned `version` — v1 continuations keep
//! draining on v1 code while new roots already route to v2.
//!
//! Eviction is drain-based: once the engine knows no event pinned below the
//! active version can still exist (for StateFlow, the first snapshot after
//! an upgrade commits — the pipeline fully drained to cut it), it calls
//! [`VersionRegistry::evict_below`] and the superseded program text and
//! bytecode are dropped.
//!
//! The switchover's per-entity state migration is
//! [`VersionEntry::migrate_entity`]: the engines differ in when they run the
//! pass and where its result goes, not in what it does to an entity.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use se_lang::{EntityRef, EntityState, MIGRATION_METHOD};

use crate::event::{Invocation, RequestId, INITIAL_VERSION};
use crate::exec::{process_invocation_with, BodyRunner, StepEffect};
use crate::graph::DataflowGraph;

/// One deployed program version: the compiled graph and the body runner
/// (interpreter or bytecode) that executes it.
#[derive(Clone)]
pub struct VersionEntry {
    /// The compiled dataflow graph of this version.
    pub graph: Arc<DataflowGraph>,
    /// Executes this version's method bodies.
    pub runner: Arc<dyn BodyRunner>,
}

impl VersionEntry {
    /// The per-entity step of a live upgrade's migration pass — the one
    /// copy both engines run over their slice of the store, with the
    /// pipeline drained. `state` is the entity's committed state; the
    /// result is its post-migration state and whether `__migrate__` ran to
    /// completion, or `None` when the entity needs no pass (unknown class,
    /// or no `__migrate__` and no attribute new in this version).
    ///
    /// Attributes new in this version materialize with their declared
    /// defaults first: the entity predates the class shape, and
    /// `__migrate__` (and every body after it) must never read a hole. An
    /// entity whose `__migrate__` errors keeps that backfilled shape — a
    /// bad migration body must not wedge the cluster. Typecheck rejects
    /// remote calls inside `__migrate__`, so a suspension means a stale
    /// registry entry; it is treated the same way rather than deadlocking
    /// the drained pipeline on a chain hop. `node` names the caller in the
    /// two warnings.
    pub fn migrate_entity(
        &self,
        version: u64,
        node: &str,
        target: EntityRef,
        state: &EntityState,
    ) -> Option<(EntityState, bool)> {
        let program = &self.graph.program;
        let class = &program.class(target.class)?.class;
        let has_body = class.migration_method().is_some();
        if !has_body && class.attrs.iter().all(|a| state.contains_key(a.name)) {
            return None;
        }
        let mut after = state.clone();
        for attr in &class.attrs {
            if !after.contains_key(attr.name) {
                after.insert(attr.name, attr.default.clone());
            }
        }
        if !has_body {
            return Some((after, false));
        }
        let backfilled = after.clone();
        let inv = Invocation::root(RequestId(0), target, MIGRATION_METHOD, Vec::new())
            .at_version(version);
        match process_invocation_with(program, &*self.runner, inv, &mut after) {
            StepEffect::Respond(resp) => match resp.result {
                Ok(_) => return Some((after, true)),
                Err(e) => eprintln!(
                    "warning: {node}: __migrate__ to v{version} failed for {target}: {e}; \
                     entity keeps its backfilled-but-unmigrated shape"
                ),
            },
            StepEffect::Emit(_) => eprintln!(
                "warning: {node}: __migrate__ to v{version} suspended for {target} \
                 (remote call); entity keeps its backfilled shape"
            ),
        }
        Some((backfilled, false))
    }
}

/// All live program versions of one deployment, keyed by version number.
///
/// Shared (`Arc`) between the client-facing runtime, which inserts new
/// versions and advances `active`, and every execution site, which resolves
/// events by their pinned version.
pub struct VersionRegistry {
    entries: RwLock<BTreeMap<u64, VersionEntry>>,
    /// The version new root invocations are stamped with. Only the engine's
    /// switchover protocol advances this (at its epoch/batch boundary).
    active: AtomicU64,
}

impl VersionRegistry {
    /// A registry holding `graph`/`runner` as the initial active version.
    pub fn new(graph: Arc<DataflowGraph>, runner: Arc<dyn BodyRunner>) -> Arc<Self> {
        let mut entries = BTreeMap::new();
        entries.insert(INITIAL_VERSION, VersionEntry { graph, runner });
        Arc::new(VersionRegistry {
            entries: RwLock::new(entries),
            active: AtomicU64::new(INITIAL_VERSION),
        })
    }

    /// The currently active version number.
    pub fn active(&self) -> u64 {
        self.active.load(Ordering::SeqCst)
    }

    /// Marks `version` active: new roots route to it from now on.
    pub fn set_active(&self, version: u64) {
        self.active.store(version, Ordering::SeqCst);
    }

    /// The entry for `version`, if still registered.
    pub fn get(&self, version: u64) -> Option<VersionEntry> {
        self.entries.read().get(&version).cloned()
    }

    /// The active version's entry (always registered).
    pub fn active_entry(&self) -> VersionEntry {
        self.get(self.active()).expect("active version registered")
    }

    /// Resolves `version`, falling back to the active entry when the version
    /// was already evicted (a drained version can only be referenced by
    /// stale duplicates, which the engines fence elsewhere).
    pub fn resolve(&self, version: u64) -> VersionEntry {
        self.get(version).unwrap_or_else(|| self.active_entry())
    }

    /// Registers a new version (does not activate it).
    pub fn insert(&self, version: u64, graph: Arc<DataflowGraph>, runner: Arc<dyn BodyRunner>) {
        self.entries
            .write()
            .insert(version, VersionEntry { graph, runner });
    }

    /// Drops every version strictly below `floor` (drained-version
    /// eviction). Returns how many entries were removed.
    pub fn evict_below(&self, floor: u64) -> usize {
        let mut entries = self.entries.write();
        let before = entries.len();
        entries.retain(|v, _| *v >= floor);
        before - entries.len()
    }

    /// Number of registered versions.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether the registry is empty (never true in a live deployment).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The registered version numbers, ascending.
    pub fn versions(&self) -> Vec<u64> {
        self.entries.read().keys().copied().collect()
    }
}

impl std::fmt::Debug for VersionRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionRegistry")
            .field("versions", &self.versions())
            .field("active", &self.active())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::InterpBody;
    use crate::graph::CompiledProgram;

    fn graph(version: u64) -> Arc<DataflowGraph> {
        Arc::new(DataflowGraph {
            program: CompiledProgram { classes: vec![] },
            operators: vec![],
            edges: vec![],
            version,
        })
    }

    #[test]
    fn insert_activate_evict() {
        let reg = VersionRegistry::new(graph(1), Arc::new(InterpBody));
        assert_eq!(reg.active(), 1);
        reg.insert(2, graph(2), Arc::new(InterpBody));
        assert_eq!(reg.versions(), vec![1, 2]);
        // v1 still resolves while registered.
        assert_eq!(reg.resolve(1).graph.version, 1);
        reg.set_active(2);
        assert_eq!(reg.active_entry().graph.version, 2);
        assert_eq!(reg.evict_below(2), 1);
        assert_eq!(reg.versions(), vec![2]);
        // Evicted versions fall back to the active entry.
        assert_eq!(reg.resolve(1).graph.version, 2);
    }
}
