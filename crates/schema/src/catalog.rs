//! The class catalog: hierarchy maintenance, inheritance resolution,
//! subclass closures, and late-binding method resolution.

use crate::class::{AttrSpec, Attribute, Class, MethodSig};
use orion_types::{ClassId, DbError, DbResult, Domain, Oid, OidHashMap, Value};
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A class with inheritance fully applied: the flattened attribute and
/// method sets a query, index, or object manager actually works against.
#[derive(Debug, Clone)]
pub struct ResolvedClass {
    /// The class id.
    pub id: ClassId,
    /// The class name.
    pub name: String,
    /// All attributes — inherited then local — after conflict resolution.
    pub attrs: Vec<Attribute>,
    /// All methods after conflict resolution; `defined_in` tells which
    /// class's implementation wins for each selector.
    pub methods: Vec<MethodSig>,
    /// The class version this resolution reflects.
    pub version: u32,
    /// The class and every ancestor, in resolution order (the
    /// linearization): what `is_a` answers from without a catalog walk.
    lineage: Vec<ClassId>,
}

impl ResolvedClass {
    /// Is this class `sup` or a (transitive) subclass of it?
    pub fn is_a(&self, sup: ClassId) -> bool {
        self.lineage.contains(&sup)
    }

    /// Look up an attribute by name.
    pub fn attr(&self, name: &str) -> Option<&Attribute> {
        self.attrs.iter().find(|a| a.name == name)
    }

    /// Look up an attribute by catalog id.
    pub fn attr_by_id(&self, id: u32) -> Option<&Attribute> {
        self.attrs.iter().find(|a| a.id == id)
    }

    /// Look up a method by selector.
    pub fn method(&self, selector: &str) -> Option<&MethodSig> {
        self.methods.iter().find(|m| m.selector == selector)
    }
}

/// Counters for the method-dispatch cache (experiment E7).
#[derive(Debug, Default)]
pub struct DispatchStats {
    /// Dispatches answered from the cache.
    pub hits: AtomicU64,
    /// Dispatches that walked the linearization.
    pub misses: AtomicU64,
}

impl DispatchStats {
    /// Snapshot `(hits, misses)`.
    pub fn snapshot(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }
}

/// Referenced object → the `(class, attribute id)` pairs whose default
/// names it.
type DefaultRefs = OidHashMap<Vec<(ClassId, u32)>>;

/// The schema catalog.
///
/// Mutation requires `&mut self` (the facade serializes schema changes
/// under a schema lock); reads are `&self` and cache resolved classes,
/// subtree closures, and method targets behind interior locks that are
/// invalidated wholesale on any schema change — schema changes are rare,
/// reads are hot.
#[derive(Debug)]
pub struct Catalog {
    classes: Vec<Option<Class>>,
    by_name: HashMap<String, ClassId>,
    next_attr_id: u32,
    /// Global schema version; bumped on every change.
    version: u32,
    resolved: RwLock<HashMap<ClassId, Arc<ResolvedClass>>>,
    subtrees: RwLock<HashMap<ClassId, Arc<Vec<ClassId>>>>,
    /// Every object a resolved attribute default references, with the
    /// `(class, attribute id)` pairs that name it.
    default_refs: OnceLock<DefaultRefs>,
    /// `(class, selector) → defining class` method cache. Can be disabled
    /// to measure raw late-binding cost (experiment E7).
    method_cache: RwLock<HashMap<(ClassId, String), ClassId>>,
    method_cache_enabled: bool,
    /// Dispatch cache counters.
    pub dispatch_stats: DispatchStats,
}

impl Default for Catalog {
    fn default() -> Self {
        Self::new()
    }
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog {
            classes: Vec::new(),
            by_name: HashMap::new(),
            next_attr_id: 1,
            version: 0,
            resolved: RwLock::new(HashMap::new()),
            subtrees: RwLock::new(HashMap::new()),
            default_refs: OnceLock::new(),
            method_cache: RwLock::new(HashMap::new()),
            method_cache_enabled: true,
            dispatch_stats: DispatchStats::default(),
        }
    }

    /// Enable or disable the method-dispatch cache (for benchmarking the
    /// cost of uncached late binding).
    pub fn set_method_cache_enabled(&mut self, enabled: bool) {
        self.method_cache_enabled = enabled;
        self.method_cache.write().clear();
    }

    /// The global schema version (monotone across all changes).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Number of live classes.
    pub fn class_count(&self) -> usize {
        self.classes.iter().flatten().count()
    }

    /// Iterate over all live classes.
    pub fn classes(&self) -> impl Iterator<Item = &Class> {
        self.classes.iter().flatten()
    }

    // ------------------------------------------------------------------
    // Class creation and lookup
    // ------------------------------------------------------------------

    /// Create a class with the given direct superclasses and locally
    /// defined attributes. Validates: unique name, existing superclasses,
    /// acyclicity (trivially — a new class cannot be its own ancestor),
    /// and that the resolved attribute set is conflict-free.
    pub fn create_class(
        &mut self,
        name: &str,
        supers: &[ClassId],
        attrs: Vec<AttrSpec>,
    ) -> DbResult<ClassId> {
        if self.by_name.contains_key(name) {
            return Err(DbError::AlreadyExists(format!("class `{name}`")));
        }
        for sup in supers {
            self.class(*sup)?;
        }
        let mut uniq = HashSet::new();
        for sup in supers {
            if !uniq.insert(*sup) {
                return Err(DbError::SchemaInvariant(format!(
                    "duplicate superclass {sup} in definition of `{name}`"
                )));
            }
        }
        let id = ClassId(self.classes.len() as u16);
        if id.0 == u16::MAX {
            return Err(DbError::SchemaInvariant("class id space exhausted".into()));
        }
        let local_attrs = attrs
            .into_iter()
            .map(|spec| self.make_attribute(id, spec))
            .collect::<DbResult<Vec<_>>>()?;
        let class = Class {
            id,
            name: name.to_owned(),
            supers: supers.to_vec(),
            local_attrs,
            local_methods: Vec::new(),
            version: 0,
        };
        self.classes.push(Some(class));
        self.by_name.insert(name.to_owned(), id);
        // Resolving checks for attribute-name conflicts among supers.
        if let Err(e) = self.check_resolvable(id) {
            self.classes[id.0 as usize] = None;
            self.by_name.remove(name);
            return Err(e);
        }
        self.touch();
        Ok(id)
    }

    pub(crate) fn make_attribute(&mut self, owner: ClassId, spec: AttrSpec) -> DbResult<Attribute> {
        if let Domain::Class(c) = &spec.domain {
            // Self-reference (`Domain::Class(owner)`) is explicitly legal
            // (§3.1 concept 4) and `owner` is not yet in the table when
            // called from create_class, so only validate foreign ids.
            if *c != owner {
                self.class(*c)?;
            }
        } else if let Some(leaf) = spec.domain.leaf_class() {
            if leaf != owner {
                self.class(leaf)?;
            }
        }
        if spec.composite && !spec.domain.is_reference() {
            return Err(DbError::SchemaInvariant(format!(
                "composite attribute `{}` must have a class domain, got `{}`",
                spec.name, spec.domain
            )));
        }
        let id = self.next_attr_id;
        self.next_attr_id += 1;
        Ok(Attribute {
            id,
            name: spec.name,
            domain: spec.domain,
            default: spec.default,
            composite: spec.composite,
            defined_in: owner,
        })
    }

    /// Look up a class by id.
    pub fn class(&self, id: ClassId) -> DbResult<&Class> {
        self.classes
            .get(id.0 as usize)
            .and_then(|slot| slot.as_ref())
            .ok_or(DbError::UnknownClassId(id))
    }

    pub(crate) fn class_mut(&mut self, id: ClassId) -> DbResult<&mut Class> {
        self.classes
            .get_mut(id.0 as usize)
            .and_then(|slot| slot.as_mut())
            .ok_or(DbError::UnknownClassId(id))
    }

    /// Look up a class id by name.
    pub fn class_id(&self, name: &str) -> DbResult<ClassId> {
        self.by_name.get(name).copied().ok_or_else(|| DbError::UnknownClass(name.to_owned()))
    }

    /// Look up a class by name.
    pub fn class_by_name(&self, name: &str) -> DbResult<&Class> {
        self.class(self.class_id(name)?)
    }

    // ------------------------------------------------------------------
    // Hierarchy queries
    // ------------------------------------------------------------------

    /// Direct subclasses of `id`.
    pub fn direct_subclasses(&self, id: ClassId) -> Vec<ClassId> {
        self.classes
            .iter()
            .flatten()
            .filter(|c| c.supers.contains(&id))
            .map(|c| c.id)
            .collect()
    }

    /// The class hierarchy rooted at `id`: `id` plus all direct and
    /// indirect subclasses, in deterministic (id) order. This is the
    /// scope of a hierarchy query (`from Vehicle* v`) and of a
    /// class-hierarchy index.
    pub fn subtree(&self, id: ClassId) -> DbResult<Arc<Vec<ClassId>>> {
        self.class(id)?;
        if let Some(cached) = self.subtrees.read().get(&id) {
            return Ok(Arc::clone(cached));
        }
        let mut seen = HashSet::new();
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            if seen.insert(cur) {
                stack.extend(self.direct_subclasses(cur));
            }
        }
        let mut members: Vec<ClassId> = seen.into_iter().collect();
        members.sort();
        let members = Arc::new(members);
        self.subtrees.write().insert(id, Arc::clone(&members));
        Ok(members)
    }

    /// All ancestors of `id` (not including `id`), unordered.
    pub fn ancestors(&self, id: ClassId) -> DbResult<HashSet<ClassId>> {
        let mut seen = HashSet::new();
        let mut stack = self.class(id)?.supers.clone();
        while let Some(cur) = stack.pop() {
            if seen.insert(cur) {
                stack.extend(self.class(cur)?.supers.iter().copied());
            }
        }
        Ok(seen)
    }

    /// Is `sub` the same class as `sup` or a (transitive) subclass of it?
    /// Walks the superclass edges depth-first and allocates nothing; an
    /// unknown `sub` is a subclass of itself only.
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        sub == sup
            || self.class(sub).is_ok_and(|c| c.supers.iter().any(|s| self.is_subclass(*s, sup)))
    }

    /// The method/attribute resolution order: the class itself, then its
    /// superclasses in left-to-right depth-first order with the first
    /// occurrence kept (ORION's ordering rule for multiple inheritance).
    pub fn linearize(&self, id: ClassId) -> DbResult<Vec<ClassId>> {
        let mut order = Vec::new();
        let mut seen = HashSet::new();
        self.linearize_into(id, &mut order, &mut seen)?;
        Ok(order)
    }

    fn linearize_into(
        &self,
        id: ClassId,
        order: &mut Vec<ClassId>,
        seen: &mut HashSet<ClassId>,
    ) -> DbResult<()> {
        if !seen.insert(id) {
            return Ok(());
        }
        order.push(id);
        let supers = self.class(id)?.supers.clone();
        for sup in supers {
            self.linearize_into(sup, order, seen)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Inheritance resolution
    // ------------------------------------------------------------------

    /// The fully resolved (inheritance-applied) view of a class; cached.
    pub fn resolve(&self, id: ClassId) -> DbResult<Arc<ResolvedClass>> {
        if let Some(cached) = self.resolved.read().get(&id) {
            return Ok(Arc::clone(cached));
        }
        let resolved = Arc::new(self.resolve_uncached(id)?);
        self.resolved.write().insert(id, Arc::clone(&resolved));
        Ok(resolved)
    }

    /// The `(class, attribute id)` pairs whose resolved default
    /// references `oid`: an instance of such a class that stores no
    /// value for the attribute reaches `oid` through it. A hash probe;
    /// the map is built on first use after a schema change.
    pub fn defaults_naming(&self, oid: Oid) -> &[(ClassId, u32)] {
        let map = self.default_refs.get_or_init(|| {
            let mut map = DefaultRefs::default();
            for class in self.classes() {
                let Ok(resolved) = self.resolve(class.id) else { continue };
                for attr in &resolved.attrs {
                    let mut refs = Vec::new();
                    attr.default.collect_refs(&mut refs);
                    for r in refs {
                        map.entry(r).or_default().push((class.id, attr.id));
                    }
                }
            }
            map
        });
        map.get(&oid).map_or(&[], Vec::as_slice)
    }

    fn resolve_uncached(&self, id: ClassId) -> DbResult<ResolvedClass> {
        let class = self.class(id)?;
        // Walk the linearization from most-derived to least; keep the
        // first definition seen for each name (leftmost/most-derived
        // wins, so a local redefinition shadows inherited ones — §3.1
        // concept 5 "even redefine some of the inherited behavior and
        // attributes").
        let order = self.linearize(id)?;
        let mut attrs: Vec<Attribute> = Vec::new();
        let mut attr_names: HashSet<&str> = HashSet::new();
        let mut methods: Vec<MethodSig> = Vec::new();
        let mut method_names: HashSet<&str> = HashSet::new();
        for cid in &order {
            let c = self.class(*cid)?;
            for attr in &c.local_attrs {
                if attr_names.insert(attr.name.as_str()) {
                    attrs.push(attr.clone());
                } else if attr.defined_in == *cid && *cid != id {
                    // Shadowed inherited attribute: keep the more derived
                    // definition already collected.
                }
            }
            for method in &c.local_methods {
                if method_names.insert(method.selector.as_str()) {
                    methods.push(method.clone());
                }
            }
        }
        // Deterministic order for stored records and projections:
        // inherited-first is already a property of linearization order;
        // sort by attribute id for stability.
        attrs.sort_by_key(|a| a.id);
        methods.sort_by(|a, b| a.selector.cmp(&b.selector));
        Ok(ResolvedClass {
            id,
            name: class.name.clone(),
            attrs,
            methods,
            version: class.version,
            lineage: order,
        })
    }

    fn check_resolvable(&self, id: ClassId) -> DbResult<()> {
        // A name defined in two *unrelated* superclasses is a conflict
        // resolved silently by leftmost order (ORION). But two
        // definitions with the same name and *incompatible domains*
        // coming from different supers deserve an error, because records
        // of the merged class could satisfy neither. We detect the
        // domain-incompatible case here.
        let order = self.linearize(id)?;
        let mut first: HashMap<&str, &Attribute> = HashMap::new();
        for cid in &order {
            let c = self.class(*cid)?;
            for attr in &c.local_attrs {
                if let Some(existing) = first.get(attr.name.as_str()) {
                    let sub = |a: ClassId, b: ClassId| self.is_subclass(a, b);
                    if existing.id != attr.id
                        && !existing.domain.specializes(&attr.domain, &sub)
                        && !attr.domain.specializes(&existing.domain, &sub)
                    {
                        return Err(DbError::SchemaInvariant(format!(
                            "attribute `{}` inherited with incompatible domains `{}` and `{}`",
                            attr.name, existing.domain, attr.domain
                        )));
                    }
                } else {
                    first.insert(attr.name.as_str(), attr);
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Method resolution (late binding)
    // ------------------------------------------------------------------

    /// Define a method on a class. The body lives in the facade's method
    /// registry under `(defined_in, selector)`.
    pub fn add_method(&mut self, class: ClassId, selector: &str, arity: u8) -> DbResult<()> {
        let exists = self.class(class)?.local_method(selector).is_some();
        if exists {
            let name = self.class(class)?.name.clone();
            return Err(DbError::AlreadyExists(format!("method `{selector}` on `{name}`")));
        }
        let c = self.class_mut(class)?;
        c.local_methods.push(MethodSig {
            selector: selector.to_owned(),
            arity,
            defined_in: class,
        });
        self.bump_versions(class)?;
        self.touch();
        Ok(())
    }

    /// Remove a locally defined method.
    pub fn drop_method(&mut self, class: ClassId, selector: &str) -> DbResult<()> {
        let c = self.class_mut(class)?;
        let before = c.local_methods.len();
        c.local_methods.retain(|m| m.selector != selector);
        if c.local_methods.len() == before {
            let name = self.class(class)?.name.clone();
            return Err(DbError::UnknownMethod { class: name, selector: selector.to_owned() });
        }
        self.bump_versions(class)?;
        self.touch();
        Ok(())
    }

    /// Late-bind a message: find the class whose implementation of
    /// `selector` an instance of `class` runs. "If a message sent to an
    /// instance of a class is undefined for the class, it is sent up the
    /// class hierarchy to determine the class in which it is defined"
    /// (§3.3). Uses the dispatch cache when enabled.
    pub fn resolve_method(&self, class: ClassId, selector: &str) -> DbResult<ClassId> {
        if self.method_cache_enabled {
            if let Some(target) = self.method_cache.read().get(&(class, selector.to_owned())) {
                self.dispatch_stats.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(*target);
            }
        }
        self.dispatch_stats.misses.fetch_add(1, Ordering::Relaxed);
        let order = self.linearize(class)?;
        for cid in order {
            if self.class(cid)?.local_method(selector).is_some() {
                if self.method_cache_enabled {
                    self.method_cache.write().insert((class, selector.to_owned()), cid);
                }
                return Ok(cid);
            }
        }
        Err(DbError::UnknownMethod {
            class: self.class(class)?.name.clone(),
            selector: selector.to_owned(),
        })
    }

    // ------------------------------------------------------------------
    // Invalidation & invariants
    // ------------------------------------------------------------------

    /// Bump the version of `class` and every subclass (their resolved
    /// definitions all changed), and drop read caches.
    pub(crate) fn bump_versions(&mut self, class: ClassId) -> DbResult<()> {
        let affected = self.subtree(class)?.as_ref().clone();
        for id in affected {
            self.class_mut(id)?.version += 1;
        }
        Ok(())
    }

    pub(crate) fn touch(&mut self) {
        self.version += 1;
        self.resolved.write().clear();
        self.subtrees.write().clear();
        self.default_refs = OnceLock::new();
        self.method_cache.write().clear();
    }

    pub(crate) fn remove_class_entry(&mut self, id: ClassId) -> DbResult<Class> {
        let class = self
            .classes
            .get_mut(id.0 as usize)
            .and_then(|slot| slot.take())
            .ok_or(DbError::UnknownClassId(id))?;
        self.by_name.remove(&class.name);
        Ok(class)
    }

    pub(crate) fn rename_entry(&mut self, id: ClassId, new: &str) -> DbResult<()> {
        if self.by_name.contains_key(new) {
            return Err(DbError::AlreadyExists(format!("class `{new}`")));
        }
        let old = self.class(id)?.name.clone();
        self.by_name.remove(&old);
        self.by_name.insert(new.to_owned(), id);
        self.class_mut(id)?.name = new.to_owned();
        Ok(())
    }

    /// Check every schema invariant; returns the list of violations.
    /// Used by tests and by the evolution module after each change.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        // 1. Acyclicity of the class DAG.
        for class in self.classes() {
            match self.ancestors(class.id) {
                Ok(ancestors) => {
                    if ancestors.contains(&class.id) {
                        problems.push(format!("class `{}` is its own ancestor", class.name));
                    }
                }
                Err(e) => problems.push(format!("dangling superclass under `{}`: {e}", class.name)),
            }
        }
        if !problems.is_empty() {
            // The checks below walk superclass edges (`is_subclass`
            // recurses on them) and need a sound DAG.
            return problems;
        }
        // 2. Name table consistency.
        for class in self.classes() {
            if self.by_name.get(&class.name) != Some(&class.id) {
                problems.push(format!("name table out of sync for `{}`", class.name));
            }
        }
        // 3. Resolved attribute/method name uniqueness, domain validity.
        for class in self.classes() {
            if let Err(e) = self.check_resolvable(class.id) {
                problems.push(format!("class `{}`: {e}", class.name));
            }
            match self.resolve(class.id) {
                Ok(resolved) => {
                    let mut names = HashSet::new();
                    for attr in &resolved.attrs {
                        if !names.insert(&attr.name) {
                            problems.push(format!(
                                "class `{}` resolves attribute `{}` twice",
                                class.name, attr.name
                            ));
                        }
                        if let Some(leaf) = attr.domain.leaf_class() {
                            if self.class(leaf).is_err() {
                                problems.push(format!(
                                    "attribute `{}.{}` references dropped class {leaf}",
                                    class.name, attr.name
                                ));
                            }
                        }
                        if attr.composite && !attr.domain.is_reference() {
                            problems.push(format!(
                                "composite attribute `{}.{}` has non-reference domain",
                                class.name, attr.name
                            ));
                        }
                    }
                    let mut sels = HashSet::new();
                    for m in &resolved.methods {
                        if !sels.insert(&m.selector) {
                            problems.push(format!(
                                "class `{}` resolves method `{}` twice",
                                class.name, m.selector
                            ));
                        }
                    }
                }
                Err(e) => problems.push(format!("class `{}` fails to resolve: {e}", class.name)),
            }
        }
        problems
    }

    /// Raw attribute-id counter (snapshot support).
    pub(crate) fn next_attr_id_raw(&self) -> u32 {
        self.next_attr_id
    }

    /// Raw class slots, including dropped (`None`) ones (snapshot support).
    pub(crate) fn class_slots(&self) -> &[Option<Class>] {
        &self.classes
    }

    /// Rebuild from snapshot parts; read caches start cold.
    pub(crate) fn from_parts(
        classes: Vec<Option<Class>>,
        next_attr_id: u32,
        version: u32,
    ) -> Catalog {
        let by_name = classes
            .iter()
            .flatten()
            .map(|c| (c.name.clone(), c.id))
            .collect();
        Catalog {
            classes,
            by_name,
            next_attr_id,
            version,
            resolved: RwLock::new(HashMap::new()),
            subtrees: RwLock::new(HashMap::new()),
            default_refs: OnceLock::new(),
            method_cache: RwLock::new(HashMap::new()),
            method_cache_enabled: true,
            dispatch_stats: DispatchStats::default(),
        }
    }

    /// Helper exposing the subclass test as a closure for [`Domain::admits`].
    pub fn subclass_fn(&self) -> impl Fn(ClassId, ClassId) -> bool + '_ {
        move |a, b| self.is_subclass(a, b)
    }

    /// Validate that `value` conforms to `attr`'s domain.
    pub fn check_domain(&self, class_name: &str, attr: &Attribute, value: &Value) -> DbResult<()> {
        if attr.domain.admits(value, &self.subclass_fn()) {
            Ok(())
        } else {
            Err(DbError::DomainViolation {
                class: class_name.to_owned(),
                attribute: attr.name.clone(),
                expected: attr.domain.to_string(),
                got: value.kind().to_owned(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_types::PrimitiveType;

    fn int() -> Domain {
        Domain::Primitive(PrimitiveType::Int)
    }
    fn string() -> Domain {
        Domain::Primitive(PrimitiveType::Str)
    }

    /// Build the paper's Figure 1 skeleton: Vehicle hierarchy + Company.
    fn figure1() -> (Catalog, ClassId, ClassId, ClassId, ClassId) {
        let mut cat = Catalog::new();
        let company = cat
            .create_class(
                "Company",
                &[],
                vec![AttrSpec::new("name", string()), AttrSpec::new("location", string())],
            )
            .unwrap();
        let vehicle = cat
            .create_class(
                "Vehicle",
                &[],
                vec![
                    AttrSpec::new("weight", int()),
                    AttrSpec::new("manufacturer", Domain::Class(company)),
                ],
            )
            .unwrap();
        let automobile = cat
            .create_class("Automobile", &[vehicle], vec![AttrSpec::new("drivetrain", string())])
            .unwrap();
        let truck = cat
            .create_class("Truck", &[vehicle], vec![AttrSpec::new("payload", int())])
            .unwrap();
        (cat, company, vehicle, automobile, truck)
    }

    #[test]
    fn create_and_lookup() {
        let (cat, company, vehicle, ..) = figure1();
        assert_eq!(cat.class_id("Company").unwrap(), company);
        assert_eq!(cat.class_by_name("Vehicle").unwrap().id, vehicle);
        assert!(cat.class_id("Spaceship").is_err());
        assert_eq!(cat.class_count(), 4);
    }

    #[test]
    fn duplicate_class_name_rejected() {
        let (mut cat, ..) = figure1();
        assert!(matches!(
            cat.create_class("Vehicle", &[], vec![]),
            Err(DbError::AlreadyExists(_))
        ));
    }

    #[test]
    fn inheritance_flattens_attributes() {
        let (cat, _, vehicle, automobile, _) = figure1();
        let resolved = cat.resolve(automobile).unwrap();
        let names: Vec<_> = resolved.attrs.iter().map(|a| a.name.as_str()).collect();
        assert!(names.contains(&"weight"));
        assert!(names.contains(&"manufacturer"));
        assert!(names.contains(&"drivetrain"));
        // The inherited attribute keeps the id of its defining class.
        let weight_in_vehicle = cat.resolve(vehicle).unwrap().attr("weight").unwrap().id;
        assert_eq!(resolved.attr("weight").unwrap().id, weight_in_vehicle);
        assert_eq!(resolved.attr("weight").unwrap().defined_in, vehicle);
    }

    #[test]
    fn subtree_and_subclass_tests() {
        let (cat, company, vehicle, automobile, truck) = figure1();
        let subtree = cat.subtree(vehicle).unwrap();
        assert_eq!(subtree.as_ref(), &vec![vehicle, automobile, truck]);
        assert!(cat.is_subclass(truck, vehicle));
        assert!(cat.is_subclass(vehicle, vehicle));
        assert!(!cat.is_subclass(vehicle, truck));
        assert!(!cat.is_subclass(company, vehicle));
    }

    #[test]
    fn is_subclass_agrees_with_ancestors_on_a_diamond() {
        // Top <- Left, Right <- Bottom, plus an unrelated class.
        let mut cat = Catalog::new();
        let top = cat.create_class("Top", &[], vec![]).unwrap();
        let left = cat.create_class("Left", &[top], vec![]).unwrap();
        let right = cat.create_class("Right", &[top], vec![]).unwrap();
        let bottom = cat.create_class("Bottom", &[left, right], vec![]).unwrap();
        let other = cat.create_class("Other", &[], vec![]).unwrap();
        let classes = [top, left, right, bottom, other];
        for sub in classes {
            let ancestors = cat.ancestors(sub).unwrap();
            let resolved = cat.resolve(sub).unwrap();
            for sup in classes {
                let expected = sub == sup || ancestors.contains(&sup);
                assert_eq!(cat.is_subclass(sub, sup), expected, "{sub} <: {sup}");
                assert_eq!(resolved.is_a(sup), expected, "{sub} lineage has {sup}");
            }
        }
        assert!(cat.is_subclass(bottom, top));
        assert!(!cat.is_subclass(left, right));
    }

    #[test]
    fn deep_hierarchy_subtree() {
        let (mut cat, _, _, automobile, _) = figure1();
        let domestic =
            cat.create_class("DomesticAutomobile", &[automobile], vec![]).unwrap();
        let sports = cat.create_class("SportsCar", &[domestic], vec![]).unwrap();
        let subtree = cat.subtree(automobile).unwrap();
        assert!(subtree.contains(&sports));
        assert_eq!(subtree.len(), 3);
    }

    #[test]
    fn multiple_inheritance_leftmost_wins() {
        let mut cat = Catalog::new();
        let a = cat
            .create_class("A", &[], vec![AttrSpec::new("x", int()).with_default(Value::Int(1))])
            .unwrap();
        let b = cat
            .create_class("B", &[], vec![AttrSpec::new("x", int()).with_default(Value::Int(2))])
            .unwrap();
        let c = cat.create_class("C", &[a, b], vec![]).unwrap();
        let resolved = cat.resolve(c).unwrap();
        // Exactly one `x`, and it is A's (leftmost superclass).
        let xs: Vec<_> = resolved.attrs.iter().filter(|at| at.name == "x").collect();
        assert_eq!(xs.len(), 1);
        assert_eq!(xs[0].defined_in, a);
        assert_eq!(xs[0].default, Value::Int(1));
    }

    #[test]
    fn incompatible_inherited_domains_rejected() {
        let mut cat = Catalog::new();
        let a = cat.create_class("A", &[], vec![AttrSpec::new("x", int())]).unwrap();
        let b = cat.create_class("B", &[], vec![AttrSpec::new("x", string())]).unwrap();
        let err = cat.create_class("C", &[a, b], vec![]).unwrap_err();
        assert!(matches!(err, DbError::SchemaInvariant(_)));
        // The failed class must not linger in the catalog.
        assert!(cat.class_id("C").is_err());
        assert!(cat.validate().is_empty());
    }

    #[test]
    fn local_redefinition_shadows_inherited() {
        let mut cat = Catalog::new();
        let a = cat
            .create_class("A", &[], vec![AttrSpec::new("x", int()).with_default(Value::Int(1))])
            .unwrap();
        let b = cat
            .create_class("B", &[a], vec![AttrSpec::new("x", int()).with_default(Value::Int(9))])
            .unwrap();
        let resolved = cat.resolve(b).unwrap();
        let xs: Vec<_> = resolved.attrs.iter().filter(|at| at.name == "x").collect();
        assert_eq!(xs.len(), 1);
        assert_eq!(xs[0].defined_in, b, "subclass redefinition wins");
        assert_eq!(xs[0].default, Value::Int(9));
    }

    #[test]
    fn diamond_inheritance_resolves_once() {
        let mut cat = Catalog::new();
        let top = cat.create_class("Top", &[], vec![AttrSpec::new("t", int())]).unwrap();
        let left = cat.create_class("Left", &[top], vec![]).unwrap();
        let right = cat.create_class("Right", &[top], vec![]).unwrap();
        let bottom = cat.create_class("Bottom", &[left, right], vec![]).unwrap();
        let resolved = cat.resolve(bottom).unwrap();
        assert_eq!(resolved.attrs.iter().filter(|a| a.name == "t").count(), 1);
        let lin = cat.linearize(bottom).unwrap();
        assert_eq!(lin[0], bottom);
        assert_eq!(lin[1], left);
        assert!(lin.contains(&right) && lin.contains(&top));
        assert_eq!(lin.len(), 4);
    }

    #[test]
    fn method_resolution_walks_hierarchy() {
        let (mut cat, _, vehicle, automobile, _) = figure1();
        cat.add_method(vehicle, "display", 0).unwrap();
        // Inherited: resolves to Vehicle's implementation.
        assert_eq!(cat.resolve_method(automobile, "display").unwrap(), vehicle);
        // Override in the subclass: now resolves locally.
        cat.add_method(automobile, "display", 0).unwrap();
        assert_eq!(cat.resolve_method(automobile, "display").unwrap(), automobile);
        // Still Vehicle's for Vehicle instances.
        assert_eq!(cat.resolve_method(vehicle, "display").unwrap(), vehicle);
        assert!(cat.resolve_method(vehicle, "fly").is_err());
    }

    #[test]
    fn method_cache_hits_and_invalidates() {
        let (mut cat, _, vehicle, automobile, _) = figure1();
        cat.add_method(vehicle, "display", 0).unwrap();
        let (hits0, misses0) = cat.dispatch_stats.snapshot();
        let _ = cat.resolve_method(automobile, "display").unwrap();
        let _ = cat.resolve_method(automobile, "display").unwrap();
        let (hits, misses) = cat.dispatch_stats.snapshot();
        assert_eq!((hits - hits0, misses - misses0), (1, 1));
        // A schema change invalidates the cache.
        cat.add_method(automobile, "display", 0).unwrap();
        assert_eq!(cat.resolve_method(automobile, "display").unwrap(), automobile);
    }

    #[test]
    fn dropping_an_override_late_binds_to_the_superclass() {
        let (mut cat, _, vehicle, automobile, _) = figure1();
        cat.add_method(vehicle, "display", 0).unwrap();
        cat.add_method(automobile, "display", 0).unwrap();
        // Warm the cache with the override, then drop it.
        for _ in 0..2 {
            assert_eq!(cat.resolve_method(automobile, "display").unwrap(), automobile);
        }
        let (hits0, _) = cat.dispatch_stats.snapshot();
        assert!(hits0 >= 1, "the second dispatch was a cache hit");
        cat.drop_method(automobile, "display").unwrap();
        assert_eq!(cat.resolve_method(automobile, "display").unwrap(), vehicle);
        assert!(cat.resolve(automobile).unwrap().methods.iter().all(|m| m.defined_in == vehicle));
        // Dropping what is no longer local is an error.
        assert!(matches!(
            cat.drop_method(automobile, "display"),
            Err(DbError::UnknownMethod { .. })
        ));
    }

    #[test]
    fn method_cache_disable() {
        let (mut cat, _, vehicle, automobile, _) = figure1();
        cat.add_method(vehicle, "display", 0).unwrap();
        cat.set_method_cache_enabled(false);
        let (hits0, misses0) = cat.dispatch_stats.snapshot();
        for _ in 0..5 {
            let _ = cat.resolve_method(automobile, "display").unwrap();
        }
        let (hits, misses) = cat.dispatch_stats.snapshot();
        assert_eq!(hits - hits0, 0);
        assert_eq!(misses - misses0, 5);
    }

    #[test]
    fn composite_attr_requires_reference_domain() {
        let mut cat = Catalog::new();
        let err = cat
            .create_class("X", &[], vec![AttrSpec::new("w", int()).composite()])
            .unwrap_err();
        assert!(matches!(err, DbError::SchemaInvariant(_)));
    }

    #[test]
    fn self_referential_domain_allowed() {
        let mut cat = Catalog::new();
        // "The domain of an attribute of a class C may be the class C."
        let mut attrs = vec![AttrSpec::new("name", string())];
        // Self-reference must be expressed after creation (id unknown), so
        // create then evolve — see evolution tests; here test set-of-self
        // via two-step creation.
        let person = cat.create_class("Person", &[], std::mem::take(&mut attrs)).unwrap();
        let spec = AttrSpec::new("friends", Domain::set_of_class(person));
        crate::evolution::SchemaChange::AddAttribute { class: person, spec }
            .apply(&mut cat)
            .unwrap();
        let resolved = cat.resolve(person).unwrap();
        assert_eq!(resolved.attr("friends").unwrap().domain, Domain::set_of_class(person));
        assert!(cat.validate().is_empty());
    }

    #[test]
    fn versions_bump_down_the_subtree() {
        let (mut cat, _, vehicle, automobile, truck) = figure1();
        let v0 = cat.class(automobile).unwrap().version;
        cat.add_method(vehicle, "display", 0).unwrap();
        assert!(cat.class(automobile).unwrap().version > v0);
        assert!(cat.class(truck).unwrap().version > v0);
    }

    #[test]
    fn validate_clean_catalog() {
        let (cat, ..) = figure1();
        assert!(cat.validate().is_empty());
    }

    #[test]
    fn domain_check_reports_violation() {
        let (cat, _, vehicle, ..) = figure1();
        let resolved = cat.resolve(vehicle).unwrap();
        let weight = resolved.attr("weight").unwrap();
        assert!(cat.check_domain("Vehicle", weight, &Value::Int(100)).is_ok());
        let err = cat.check_domain("Vehicle", weight, &Value::str("heavy")).unwrap_err();
        assert!(matches!(err, DbError::DomainViolation { .. }));
    }
}
