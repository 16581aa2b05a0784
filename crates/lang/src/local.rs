//! Single-process, synchronous execution of entity programs.
//!
//! This is the paper's **Local** runtime (§3): "state is kept in a local
//! HashMap data structure instead of a state management backend", letting
//! developers "debug, unit test, and validate a StateFlow program as they
//! would do for an arbitrary application".
//!
//! The local executor is also the **serial oracle** for every correctness
//! test in the repository: the distributed runtimes must produce exactly the
//! results the local executor produces for an equivalent serial schedule.

use std::collections::HashMap;

use crate::ast::Program;
use crate::error::LangError;
use crate::interp::{CallHandler, Env, Flow, Interpreter};
use crate::symbol::Symbol;
use crate::value::{EntityRef, EntityState, Value};

/// Maximum depth of nested entity-to-entity calls.
///
/// The compiler statically prohibits recursion (§2.2), but the local executor
/// also guards dynamically so that hand-built (unchecked) programs cannot
/// overflow the stack.
pub const MAX_CALL_DEPTH: usize = 64;

/// All entity instances of a locally executed program.
#[derive(Debug, Default, Clone)]
pub struct LocalStore {
    entities: HashMap<EntityRef, EntityState>,
}

impl LocalStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an entity instance with the class's defaults plus `init`
    /// overrides; returns its reference.
    pub fn create(
        &mut self,
        program: &Program,
        class: &str,
        key: &str,
        init: impl IntoIterator<Item = (String, Value)>,
    ) -> Result<EntityRef, LangError> {
        let class_def = program.class_or_err(class)?;
        let r = EntityRef::new(class, key);
        let state = class_def.initial_state(r.key, init);
        self.entities.insert(r, state);
        Ok(r)
    }

    /// Direct read access to an entity's state (tests and oracles).
    pub fn state(&self, r: &EntityRef) -> Option<&EntityState> {
        self.entities.get(r)
    }

    /// Number of entities in the store.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// Whether the store has no entities.
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }

    /// Iterates all `(ref, state)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&EntityRef, &EntityState)> {
        self.entities.iter()
    }
}

/// Executes methods synchronously against a [`LocalStore`].
pub struct LocalExecutor<'p> {
    program: &'p Program,
    store: LocalStore,
}

impl<'p> LocalExecutor<'p> {
    /// Executor over an empty store.
    pub fn new(program: &'p Program) -> Self {
        Self {
            program,
            store: LocalStore::new(),
        }
    }

    /// Executor over an existing store.
    pub fn with_store(program: &'p Program, store: LocalStore) -> Self {
        Self { program, store }
    }

    /// The underlying store.
    pub fn store(&self) -> &LocalStore {
        &self.store
    }

    /// Consumes the executor and returns the store.
    pub fn into_store(self) -> LocalStore {
        self.store
    }

    /// Creates an entity instance.
    pub fn create(
        &mut self,
        class: &str,
        key: &str,
        init: impl IntoIterator<Item = (String, Value)>,
    ) -> Result<EntityRef, LangError> {
        self.store.create(self.program, class, key, init)
    }

    /// Invokes `method` on the entity `target` with `args`, executing nested
    /// remote calls synchronously (depth-first).
    pub fn invoke(
        &mut self,
        target: &EntityRef,
        method: &str,
        args: Vec<Value>,
    ) -> Result<Value, LangError> {
        invoke_at_depth(
            self.program,
            &mut self.store.entities,
            target,
            Symbol::from(method),
            args,
            0,
        )
    }
}

struct StoreHandler<'a, 'p> {
    program: &'p Program,
    entities: &'a mut HashMap<EntityRef, EntityState>,
    depth: usize,
}

impl CallHandler for StoreHandler<'_, '_> {
    fn call(
        &mut self,
        target: &EntityRef,
        method: Symbol,
        args: Vec<Value>,
    ) -> Result<Value, LangError> {
        invoke_at_depth(
            self.program,
            self.entities,
            target,
            method,
            args,
            self.depth + 1,
        )
    }
}

fn invoke_at_depth(
    program: &Program,
    entities: &mut HashMap<EntityRef, EntityState>,
    target: &EntityRef,
    method: Symbol,
    args: Vec<Value>,
    depth: usize,
) -> Result<Value, LangError> {
    if depth > MAX_CALL_DEPTH {
        return Err(LangError::runtime(format!(
            "call depth exceeded {MAX_CALL_DEPTH} at {target}.{method}()"
        )));
    }
    let class = program.class_or_err(target.class)?;
    let m = class
        .method(method)
        .ok_or_else(|| LangError::UndefinedMethod {
            class: target.class.to_string(),
            method: method.to_string(),
        })?;
    if m.params.len() != args.len() {
        return Err(LangError::ArityMismatch {
            method: format!("{}.{}", target.class, method),
            expected: m.params.len(),
            actual: args.len(),
        });
    }
    let mut env: Env = m.params.iter().map(|p| p.name).zip(args).collect();

    // Take the entity state out so the handler can borrow the map for nested
    // calls; entities never call methods on *themselves* remotely (that would
    // be recursion, which the model prohibits).
    let mut state = entities
        .remove(target)
        .ok_or_else(|| LangError::runtime(format!("unknown entity {target}")))?;

    let mut handler = StoreHandler {
        program,
        entities,
        depth,
    };
    let result = Interpreter::new().exec_stmts(&m.body, &mut env, &mut state, &mut handler);
    entities.insert(*target, state);

    match result? {
        Flow::Return(v) => Ok(v),
        Flow::Normal => Ok(Value::Unit),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::figure1_program;

    #[test]
    fn figure1_buy_item_happy_path() {
        let program = figure1_program();
        let mut exec = LocalExecutor::new(&program);
        let user = exec
            .create("User", "alice", [("balance".into(), Value::Int(100))])
            .unwrap();
        let item = exec
            .create(
                "Item",
                "laptop",
                [
                    ("price".into(), Value::Int(30)),
                    ("stock".into(), Value::Int(5)),
                ],
            )
            .unwrap();

        let ok = exec
            .invoke(&user, "buy_item", vec![Value::Int(2), Value::Ref(item)])
            .unwrap();
        assert_eq!(ok, Value::Bool(true));
        assert_eq!(
            exec.store().state(&user).unwrap()["balance"],
            Value::Int(40)
        );
        assert_eq!(exec.store().state(&item).unwrap()["stock"], Value::Int(3));
    }

    #[test]
    fn figure1_buy_item_insufficient_balance() {
        let program = figure1_program();
        let mut exec = LocalExecutor::new(&program);
        let user = exec
            .create("User", "bob", [("balance".into(), Value::Int(10))])
            .unwrap();
        let item = exec
            .create(
                "Item",
                "laptop",
                [
                    ("price".into(), Value::Int(30)),
                    ("stock".into(), Value::Int(5)),
                ],
            )
            .unwrap();

        let ok = exec
            .invoke(&user, "buy_item", vec![Value::Int(1), Value::Ref(item)])
            .unwrap();
        assert_eq!(ok, Value::Bool(false));
        // Nothing changed.
        assert_eq!(
            exec.store().state(&user).unwrap()["balance"],
            Value::Int(10)
        );
        assert_eq!(exec.store().state(&item).unwrap()["stock"], Value::Int(5));
    }

    #[test]
    fn figure1_buy_item_insufficient_stock_compensates() {
        let program = figure1_program();
        let mut exec = LocalExecutor::new(&program);
        let user = exec
            .create("User", "carol", [("balance".into(), Value::Int(1000))])
            .unwrap();
        let item = exec
            .create(
                "Item",
                "laptop",
                [
                    ("price".into(), Value::Int(1)),
                    ("stock".into(), Value::Int(1)),
                ],
            )
            .unwrap();

        let ok = exec
            .invoke(&user, "buy_item", vec![Value::Int(5), Value::Ref(item)])
            .unwrap();
        assert_eq!(ok, Value::Bool(false));
        // The compensating update_stock(+amount) restored the stock.
        assert_eq!(exec.store().state(&item).unwrap()["stock"], Value::Int(1));
        assert_eq!(
            exec.store().state(&user).unwrap()["balance"],
            Value::Int(1000)
        );
    }

    #[test]
    fn unknown_method_and_arity_errors() {
        let program = figure1_program();
        let mut exec = LocalExecutor::new(&program);
        let user = exec.create("User", "dave", []).unwrap();
        assert!(matches!(
            exec.invoke(&user, "nope", vec![]),
            Err(LangError::UndefinedMethod { .. })
        ));
        assert!(matches!(
            exec.invoke(&user, "buy_item", vec![]),
            Err(LangError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn unknown_entity_errors() {
        let program = figure1_program();
        let mut exec = LocalExecutor::new(&program);
        let ghost = EntityRef::new("User", "ghost");
        let err = exec
            .invoke(&ghost, "buy_item", vec![Value::Int(1), Value::Unit])
            .unwrap_err();
        assert!(err.to_string().contains("unknown entity"));
    }
}
