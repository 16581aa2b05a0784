//! Runtime values of the stateful-entity programming model.
//!
//! The paper's programming model is an internal DSL embedded in Python, so
//! values are dynamically typed at runtime while the compiler enforces static
//! type hints. We mirror that: [`Value`] is a dynamic value, and the
//! [`crate::types::Type`] system checks programs before deployment.
//!
//! Two representation choices carry the hot path:
//!
//! * names (classes, attributes, entity keys) are interned [`Symbol`]s, so
//!   an [`EntityRef`] is a `Copy` pair of integers and routing/equality
//!   never touch string bytes;
//! * name-keyed maps ([`SymbolMap`], aliased as [`EntityState`] and
//!   `se_lang::Env`) are copy-on-write behind an `Arc`: cloning one — which
//!   every snapshot, every shipped state and every suspension frame does —
//!   is a reference-count bump, and the underlying tree is copied only when
//!   a *shared* map is actually written.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Json, Serialize};

use crate::error::LangError;
use crate::symbol::Symbol;

/// Name of an entity class (e.g. `"User"`, `"Item"`), interned.
pub type ClassName = Symbol;

/// A reference to a stateful entity: its class plus its partitioning key.
///
/// The paper requires every entity to expose a `__key__` function whose value
/// is immutable for the entity's lifetime; the key is what the routing layer
/// hashes to place the entity on a partition. Both parts are interned
/// symbols, so an `EntityRef` is `Copy` and hashing/equality are integer
/// operations — the routing layer hashes the key *text* (stable across
/// processes), not the symbol id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EntityRef {
    /// Class of the referenced entity.
    pub class: ClassName,
    /// Partitioning key of the referenced entity.
    pub key: Symbol,
}

impl EntityRef {
    /// Creates a reference to entity `key` of class `class`.
    pub fn new(class: impl Into<Symbol>, key: impl Into<Symbol>) -> Self {
        Self {
            class: class.into(),
            key: key.into(),
        }
    }
}

impl fmt::Display for EntityRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.class, self.key)
    }
}

/// A dynamically typed runtime value.
///
/// `Map` uses a [`BTreeMap`] so that serialization (and therefore snapshots
/// and replay) is deterministic, which the exactly-once tests rely on. Map
/// keys stay `String`s: they are data (unbounded, user-controlled), not
/// names, so interning them would grow the global interner without bound.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// The unit value, returned by methods without an explicit `return`.
    Unit,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer (Python `int` in the paper's examples).
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A UTF-8 string.
    Str(String),
    /// An opaque byte payload; used by the state-size overhead experiment.
    Bytes(Vec<u8>),
    /// A homogeneous-by-convention list.
    List(Vec<Value>),
    /// A string-keyed map.
    Map(BTreeMap<String, Value>),
    /// A reference to another stateful entity.
    Ref(EntityRef),
}

impl Value {
    /// Human-readable name of the value's runtime type.
    #[inline]
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Unit => "unit",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::Bytes(_) => "bytes",
            Value::List(_) => "list",
            Value::Map(_) => "map",
            Value::Ref(_) => "ref",
        }
    }

    /// Returns the boolean interpretation of the value, following Python
    /// truthiness for the types our DSL supports.
    #[inline]
    pub fn truthy(&self) -> bool {
        match self {
            Value::Unit => false,
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::Bytes(b) => !b.is_empty(),
            Value::List(l) => !l.is_empty(),
            Value::Map(m) => !m.is_empty(),
            Value::Ref(_) => true,
        }
    }

    /// Extracts an `i64`, erroring with the expected/actual type names.
    #[inline]
    pub fn as_int(&self) -> Result<i64, LangError> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(LangError::type_mismatch("int", other.type_name())),
        }
    }

    /// Extracts a `bool`.
    pub fn as_bool(&self) -> Result<bool, LangError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(LangError::type_mismatch("bool", other.type_name())),
        }
    }

    /// Extracts a `f64`, coercing ints like Python arithmetic does.
    pub fn as_float(&self) -> Result<f64, LangError> {
        match self {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            other => Err(LangError::type_mismatch("float", other.type_name())),
        }
    }

    /// Extracts a string slice.
    pub fn as_str(&self) -> Result<&str, LangError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(LangError::type_mismatch("str", other.type_name())),
        }
    }

    /// Extracts a list slice.
    pub fn as_list(&self) -> Result<&[Value], LangError> {
        match self {
            Value::List(l) => Ok(l),
            other => Err(LangError::type_mismatch("list", other.type_name())),
        }
    }

    /// Extracts an entity reference.
    #[inline]
    pub fn as_ref(&self) -> Result<&EntityRef, LangError> {
        match self {
            Value::Ref(r) => Ok(r),
            other => Err(LangError::type_mismatch("ref", other.type_name())),
        }
    }

    /// Approximate serialized size in bytes; used by the network simulation
    /// to charge per-KB transfer cost and by the state-size overhead bench.
    pub fn approx_size(&self) -> usize {
        match self {
            Value::Unit => 1,
            Value::Bool(_) => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => 8 + s.len(),
            Value::Bytes(b) => 8 + b.len(),
            Value::List(l) => 8 + l.iter().map(Value::approx_size).sum::<usize>(),
            Value::Map(m) => {
                8 + m
                    .iter()
                    .map(|(k, v)| 8 + k.len() + v.approx_size())
                    .sum::<usize>()
            }
            Value::Ref(r) => 16 + r.class.len() + r.key.len(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "bytes[{}]", b.len()),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Map(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k:?}: {v}")?;
                }
                write!(f, "}}")
            }
            Value::Ref(r) => write!(f, "{r}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<EntityRef> for Value {
    fn from(v: EntityRef) -> Self {
        Value::Ref(v)
    }
}

/// Iterator over a [`SymbolMap`]'s `(name, value)` pairs in interning order.
pub type SymbolMapIter<'a> = std::iter::Map<
    std::slice::Iter<'a, (Symbol, Value)>,
    fn(&'a (Symbol, Value)) -> (&'a Symbol, &'a Value),
>;

/// Iterator over a [`SymbolMap`]'s names in interning order.
pub type SymbolMapKeys<'a> =
    std::iter::Map<std::slice::Iter<'a, (Symbol, Value)>, fn(&'a (Symbol, Value)) -> &'a Symbol>;

/// Iterator over a [`SymbolMap`]'s values in key (interning) order.
pub type SymbolMapValues<'a> =
    std::iter::Map<std::slice::Iter<'a, (Symbol, Value)>, fn(&'a (Symbol, Value)) -> &'a Value>;

/// A symbol-keyed, copy-on-write map of [`Value`]s.
///
/// This is the shape of both an entity's attribute map ([`EntityState`]) and
/// a method activation's local environment (`se_lang::Env`). The map is a
/// vector of entries sorted by [`Symbol`] id behind an [`Arc`]:
///
/// * **`clone` is O(1)** — a refcount bump. Snapshots, suspension frames,
///   shipped states and Aria's execute-phase reads all clone entity state;
///   none of them pay for its size anymore.
/// * **writes are copy-on-write** — mutating methods go through
///   [`Arc::make_mut`], which copies the vector only when it is shared.
///   Write amplification is therefore confined to entities that are actually
///   mutated while a snapshot (or other reader) still holds them.
/// * **lookups are binary searches** — the maps are small (an entity's
///   attributes, a method's locals), so a binary search over integer keys in
///   one contiguous allocation beats a tree.
/// * **iteration order is interning order** (see [`Symbol`]); serialization
///   sorts entries by name so snapshot/replay artifacts stay byte-stable
///   and human-readable regardless of interner state.
#[derive(Debug, Clone, Default)]
pub struct SymbolMap {
    inner: Arc<Vec<(Symbol, Value)>>,
}

impl SymbolMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Position of `key` in the sorted entry vector.
    #[inline]
    fn pos(&self, key: Symbol) -> Result<usize, usize> {
        self.inner.binary_search_by_key(&key, |(k, _)| *k)
    }

    /// Looks up `key`. Accepts anything convertible to a [`Symbol`]
    /// (symbols themselves on the hot path, `&str` in tests and tools).
    pub fn get(&self, key: impl Into<Symbol>) -> Option<&Value> {
        match self.pos(key.into()) {
            Ok(i) => Some(&self.inner[i].1),
            Err(_) => None,
        }
    }

    /// Mutable access to the value under `key` (copy-on-write).
    pub fn get_mut(&mut self, key: impl Into<Symbol>) -> Option<&mut Value> {
        let i = self.pos(key.into()).ok()?;
        Some(&mut Arc::make_mut(&mut self.inner)[i].1)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: impl Into<Symbol>) -> bool {
        self.pos(key.into()).is_ok()
    }

    /// Inserts `value` under `key` (copy-on-write), returning the previous
    /// value if any.
    pub fn insert(&mut self, key: impl Into<Symbol>, value: Value) -> Option<Value> {
        let key = key.into();
        match self.pos(key) {
            Ok(i) => Some(std::mem::replace(
                &mut Arc::make_mut(&mut self.inner)[i].1,
                value,
            )),
            Err(i) => {
                Arc::make_mut(&mut self.inner).insert(i, (key, value));
                None
            }
        }
    }

    /// Removes `key` (copy-on-write), returning its value if present.
    pub fn remove(&mut self, key: impl Into<Symbol>) -> Option<Value> {
        let i = self.pos(key.into()).ok()?;
        Some(Arc::make_mut(&mut self.inner).remove(i).1)
    }

    /// Keeps only the entries for which `f` returns true (copy-on-write).
    pub fn retain(&mut self, mut f: impl FnMut(&Symbol, &mut Value) -> bool) {
        Arc::make_mut(&mut self.inner).retain_mut(|(k, v)| f(k, v));
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Iterates `(name, value)` pairs in interning order.
    pub fn iter(&self) -> SymbolMapIter<'_> {
        fn split(e: &(Symbol, Value)) -> (&Symbol, &Value) {
            (&e.0, &e.1)
        }
        self.inner.iter().map(split)
    }

    /// Iterates the names in interning order.
    pub fn keys(&self) -> SymbolMapKeys<'_> {
        fn key(e: &(Symbol, Value)) -> &Symbol {
            &e.0
        }
        self.inner.iter().map(key)
    }

    /// Iterates the values in key (interning) order.
    pub fn values(&self) -> SymbolMapValues<'_> {
        fn val(e: &(Symbol, Value)) -> &Value {
            &e.1
        }
        self.inner.iter().map(val)
    }

    /// Whether two maps share the same underlying storage. A true result
    /// proves (in O(1)) that no write diverged them — the fast path for
    /// change detection in transactional write-set extraction.
    pub fn ptr_eq(a: &SymbolMap, b: &SymbolMap) -> bool {
        Arc::ptr_eq(&a.inner, &b.inner)
    }

    /// An independent deep copy that shares nothing with `self`.
    ///
    /// Used where a copy must be *materialized* to model real work — e.g.
    /// the StateFun runtime's state (de)serialization cost probes — since a
    /// plain `clone` is only a refcount bump.
    pub fn deep_clone(&self) -> Self {
        Self {
            inner: Arc::new((*self.inner).clone()),
        }
    }

    /// Approximate serialized size in bytes (names + values).
    pub fn approx_size(&self) -> usize {
        self.inner
            .iter()
            .map(|(k, v)| k.len() + v.approx_size())
            .sum()
    }
}

impl PartialEq for SymbolMap {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner) || self.inner == other.inner
    }
}

impl<S: Into<Symbol>> FromIterator<(S, Value)> for SymbolMap {
    fn from_iter<T: IntoIterator<Item = (S, Value)>>(iter: T) -> Self {
        // Insert one by one so a duplicate key keeps the *last* value, like
        // a map collect. The maps are small; quadratic worst case is fine.
        let mut m = SymbolMap::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

impl<S: Into<Symbol>, const N: usize> From<[(S, Value); N]> for SymbolMap {
    fn from(entries: [(S, Value); N]) -> Self {
        entries.into_iter().collect()
    }
}

impl<S: Into<Symbol>> Extend<(S, Value)> for SymbolMap {
    fn extend<T: IntoIterator<Item = (S, Value)>>(&mut self, iter: T) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

impl<'a> IntoIterator for &'a SymbolMap {
    type Item = (&'a Symbol, &'a Value);
    type IntoIter = SymbolMapIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl IntoIterator for SymbolMap {
    type Item = (Symbol, Value);
    type IntoIter = std::vec::IntoIter<(Symbol, Value)>;
    fn into_iter(self) -> Self::IntoIter {
        // Move out when unique; copy out when shared (the shared case is a
        // reader iterating a snapshot, which must not disturb the original).
        Arc::try_unwrap(self.inner)
            .unwrap_or_else(|shared| (*shared).clone())
            .into_iter()
    }
}

impl<K: Into<Symbol>> std::ops::Index<K> for SymbolMap {
    type Output = Value;
    fn index(&self, key: K) -> &Value {
        let key = key.into();
        self.get(key)
            .unwrap_or_else(|| panic!("no entry for `{key}`"))
    }
}

impl Serialize for SymbolMap {
    /// Serializes sorted by *name*, not by interner id, so the JSON is
    /// byte-stable across processes and runs.
    fn to_json(&self) -> Json {
        let mut entries: Vec<(&'static str, &Value)> =
            self.inner.iter().map(|(k, v)| (k.as_str(), v)).collect();
        entries.sort_unstable_by_key(|(k, _)| *k);
        Json::Obj(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v.to_json()))
                .collect(),
        )
    }
}

impl Deserialize for SymbolMap {}

/// The attribute map of a single entity instance, e.g. `{balance: 5}`.
///
/// Copy-on-write: cloning is O(1); see [`SymbolMap`].
pub type EntityState = SymbolMap;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness_follows_python() {
        assert!(!Value::Unit.truthy());
        assert!(!Value::Int(0).truthy());
        assert!(Value::Int(-3).truthy());
        assert!(!Value::Str(String::new()).truthy());
        assert!(Value::Str("x".into()).truthy());
        assert!(!Value::List(vec![]).truthy());
        assert!(Value::Ref(EntityRef::new("User", "alice")).truthy());
    }

    #[test]
    fn accessors_report_type_mismatch() {
        let err = Value::Str("x".into()).as_int().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("int") && msg.contains("str"), "got: {msg}");
    }

    #[test]
    fn float_coerces_int() {
        assert_eq!(Value::Int(3).as_float().unwrap(), 3.0);
    }

    #[test]
    fn approx_size_counts_payload() {
        let v = Value::Bytes(vec![0u8; 1000]);
        assert!(v.approx_size() >= 1000);
        let nested = Value::List(vec![Value::Int(1), Value::Str("ab".into())]);
        assert_eq!(nested.approx_size(), 8 + 8 + (8 + 2));
    }

    #[test]
    fn display_is_stable() {
        let mut m = BTreeMap::new();
        m.insert("b".to_string(), Value::Int(2));
        m.insert("a".to_string(), Value::Int(1));
        assert_eq!(Value::Map(m).to_string(), "{\"a\": 1, \"b\": 2}");
    }

    #[test]
    fn entity_ref_display() {
        assert_eq!(EntityRef::new("Item", "laptop").to_string(), "Item[laptop]");
    }

    #[test]
    fn entity_ref_is_copy_and_hashable() {
        let r = EntityRef::new("User", "alice");
        let r2 = r; // Copy, not move
        assert_eq!(r, r2);
        let mut set = std::collections::HashSet::new();
        set.insert(r);
        assert!(set.contains(&EntityRef::new("User", "alice")));
    }

    #[test]
    fn symbol_map_cow_clone_does_not_observe_writes() {
        let mut a = SymbolMap::from([("balance", Value::Int(10))]);
        let snapshot = a.clone();
        assert!(SymbolMap::ptr_eq(&a, &snapshot));
        a.insert("balance", Value::Int(0));
        assert!(!SymbolMap::ptr_eq(&a, &snapshot));
        assert_eq!(
            snapshot["balance"],
            Value::Int(10),
            "snapshot must not move"
        );
        assert_eq!(a["balance"], Value::Int(0));
    }

    #[test]
    fn symbol_map_unique_writes_do_not_copy() {
        let mut a = SymbolMap::from([("n", Value::Int(1))]);
        // No other handle exists: make_mut mutates in place. We can't observe
        // the allocation directly, but ptr identity must survive the write.
        let before = Arc::as_ptr(&a.inner);
        a.insert("n", Value::Int(2));
        assert_eq!(before, Arc::as_ptr(&a.inner));
    }

    #[test]
    fn symbol_map_serializes_sorted_by_name() {
        // Intern in non-alphabetical order on purpose.
        let m = SymbolMap::from([
            ("zzz_sym_last", Value::Int(1)),
            ("aaa_sym_first", Value::Int(2)),
        ]);
        assert_eq!(
            m.to_json().render_compact(),
            "{\"aaa_sym_first\":{\"Int\":2},\"zzz_sym_last\":{\"Int\":1}}"
        );
    }

    #[test]
    fn symbol_map_owned_iteration_shared_and_unique() {
        let m = SymbolMap::from([("a", Value::Int(1)), ("b", Value::Int(2))]);
        let shared = m.clone();
        let collected: Vec<(Symbol, Value)> = m.into_iter().collect();
        assert_eq!(collected.len(), 2);
        assert_eq!(shared.len(), 2, "shared handle untouched");
        let collected2: Vec<(Symbol, Value)> = shared.into_iter().collect();
        assert_eq!(collected, collected2);
    }

    #[test]
    fn symbol_map_index_by_str_and_symbol() {
        let m = SymbolMap::from([("x", Value::Int(7))]);
        assert_eq!(m["x"], Value::Int(7));
        assert_eq!(m[Symbol::intern("x")], Value::Int(7));
        assert_eq!(m.get("missing_attr"), None);
    }
}
