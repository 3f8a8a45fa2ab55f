//! Declarative queries and views on the facade.
//!
//! Views (§5.4): "To the best of our knowledge, no object-oriented
//! database system supports views at this time; in fact, I do not know
//! at this time of any published account of research into views in
//! object-oriented databases." orion implements them the classic way —
//! query modification: a view is a named, stored query; querying the
//! view splices its predicate into the user's, and granting `Read` on
//! the view (but not the base class) yields content-based authorization.

use crate::authz::{AuthAction, AuthTarget};
use crate::database::{Database, Tx};
use crate::source::SourceView;
use orion_query::ast::{Expr, Query};
use orion_query::{
    execute_with, parse, plan, AccessPath, ExecOptions, ExplainReport, PlannedQuery, QueryResult,
};
use orion_schema::Catalog;
use orion_types::{DbError, DbResult};
use std::sync::Arc;

impl Database {
    /// Parse, authorize, plan, and execute a query.
    ///
    /// Planning and execution read at one snapshot: one commit
    /// timestamp, every record resolved through the version store —
    /// **zero 2PL locks**, so queries never block writers and writers
    /// never block queries; the transaction still sees its own
    /// uncommitted writes.
    pub fn query(&self, tx: &Tx, text: &str) -> DbResult<QueryResult> {
        self.with_snapshot(Some(tx), |catalog, source| {
            let planned = self.plan_in(tx, text, catalog, source)?;
            execute_with(catalog, source, &planned, &self.exec_options())
        })
    }

    /// Plan a query and return the optimizer's structured explanation
    /// (E4). `Display` renders the classic one-line explain text, so
    /// `db.explain(tx, q)?.to_string()` is the old string API.
    pub fn explain(&self, tx: &Tx, text: &str) -> DbResult<ExplainReport> {
        Ok(self.plan(tx, text)?.report())
    }

    /// Prepare a query once for repeated execution (parse, authorize,
    /// plan). The plan stays valid while the schema and index set are
    /// unchanged; re-prepare after DDL.
    pub fn prepare_query(&self, tx: &Tx, text: &str) -> DbResult<PlannedQuery> {
        self.plan(tx, text)
    }

    /// Execute a previously prepared query outside any transaction, at
    /// a consistent committed snapshot. The snapshot and catalog guard
    /// span the whole execution — every worker reads at the one
    /// timestamp, so parallel results are byte-identical to serial.
    pub fn execute_prepared(&self, planned: &PlannedQuery) -> DbResult<QueryResult> {
        self.with_snapshot(None, |catalog, source| {
            execute_with(catalog, source, planned, &self.exec_options())
        })
    }

    fn exec_options(&self) -> ExecOptions {
        ExecOptions {
            threads: self.config.query_threads,
            metrics: Some(Arc::clone(&self.metrics.exec)),
            ..ExecOptions::default()
        }
    }

    fn plan(&self, tx: &Tx, text: &str) -> DbResult<PlannedQuery> {
        self.with_snapshot(Some(tx), |catalog, source| self.plan_in(tx, text, catalog, source))
    }

    /// Parse, resolve views, authorize and plan under the caller's
    /// catalog guard (lock order: catalog before views and authz).
    fn plan_in(
        &self,
        tx: &Tx,
        text: &str,
        catalog: &Catalog,
        source: &SourceView<'_>,
    ) -> DbResult<PlannedQuery> {
        let mut query = parse(text)?;

        // View resolution: a target naming a view splices the stored
        // query in. One level only — views over views are rejected at
        // definition time.
        let view_body = self.views.read().get(&query.target).cloned();
        let mut authz_target = None;
        if let Some(body) = view_body {
            authz_target = Some(AuthTarget::View(query.target.clone()));
            query = splice_view(&query, &parse(&body)?)?;
        }

        // Authorization: a view grant authorizes the view's content; a
        // plain query needs Read on every class in scope.
        match authz_target {
            Some(t) => self.check_auth(tx, AuthAction::Read, t)?,
            None => {
                let target = catalog.class_id(&query.target)?;
                let scope = if query.hierarchy {
                    catalog.subtree(target)?.as_ref().clone()
                } else {
                    vec![target]
                };
                for class in &scope {
                    self.check_auth(tx, AuthAction::Read, AuthTarget::Class(*class))?;
                }
            }
        }

        let planned = plan(catalog, source, query)?;
        match planned.access {
            AccessPath::Scan => self.metrics.exec.scan_picks.inc(),
            _ => self.metrics.exec.index_picks.inc(),
        }
        Ok(planned)
    }

    // ------------------------------------------------------------------
    // Views
    // ------------------------------------------------------------------

    /// Define a view: a named, stored query. The definition is validated
    /// by planning it immediately.
    pub fn define_view(&self, name: &str, body: &str) -> DbResult<()> {
        if self.views.read().contains_key(name) {
            return Err(DbError::AlreadyExists(format!("view `{name}`")));
        }
        let parsed = parse(body)?;
        if self.views.read().contains_key(&parsed.target) {
            return Err(DbError::Query(
                "views over views are not supported; name the base class".into(),
            ));
        }
        if self.catalog.read().class_id(name).is_ok() {
            return Err(DbError::AlreadyExists(format!("class `{name}` (view name collides)")));
        }
        // Validate by planning against the current schema.
        self.with_snapshot(None, |catalog, source| plan(catalog, source, parsed))?;
        self.views.write().insert(name.to_owned(), body.to_owned());
        self.persist_system_state()
    }

    /// Drop a view.
    pub fn drop_view(&self, name: &str) -> DbResult<()> {
        self.views
            .write()
            .remove(name)
            .ok_or_else(|| DbError::Query(format!("no view named `{name}`")))?;
        self.persist_system_state()
    }

    /// Names of all defined views.
    pub fn view_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.views.read().keys().cloned().collect();
        names.sort();
        names
    }
}

/// Merge a user query over a view with the view's stored definition:
/// the base class and hierarchy flag come from the view; predicates are
/// conjoined (after renaming the view's range variable to the user's).
fn splice_view(user: &Query, view: &Query) -> DbResult<Query> {
    let mut merged = user.clone();
    merged.target = view.target.clone();
    merged.hierarchy = view.hierarchy;
    merged.predicate = match (view.predicate.clone(), user.predicate.clone()) {
        (Some(v), Some(u)) => Some(Expr::And(Box::new(v), Box::new(u))),
        (Some(v), None) => Some(v),
        (None, u) => u,
    };
    // View projections/order/limit are advisory; the user query's
    // select list wins (a view is a virtual extent, not a result set).
    Ok(merged)
}
