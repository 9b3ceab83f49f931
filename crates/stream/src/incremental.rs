//! Semi-naive differential evaluation for continuous queries.
//!
//! Full re-evaluation costs O(queries × store) per batch even when the
//! batch touches three triples. This module maintains each registered
//! query's answers as a **materialized multiset** (projected row →
//! signed count) and, per batch, feeds only the batch's net delta
//! through the query's compiled plan, so steady-state cost is O(delta),
//! not O(store).
//!
//! # The delta rule
//!
//! A batch's change to a BGP's answers telescopes into one term per
//! *pivot* pattern: the batch's triples matching that pattern, joined
//! with the old state of the patterns before it and the new state of
//! those after it; the old state is recovered by compensation, since
//! only the new one is queryable after `apply`. The rule runs as
//! [`ir::execute_plan_delta`] (which spells it out) over the same
//! compiled plan a full evaluation runs — one plan per evaluation, from
//! the registry's plan cache when one is installed — so join order,
//! merge joins, LiteMat interval reasoning and overflow handling are
//! the executor's own.
//!
//! # Multiset semantics
//!
//! Counts track *derivations*: a projected row's count is the number of
//! ways the BGP derives it (summed over UNION groups). Applying a
//! batch's signed updates yields the per-batch `added`/`removed` rows:
//! bag semantics for plain SELECT, support semantics (count 0→positive /
//! positive→0) under DISTINCT. Counts never go negative on a correct
//! delta — the agreement suite cross-checks this against full
//! re-evaluation and from-scratch rebuilds.
//!
//! # Fallback
//!
//! Queries the delta path can't handle yet — FILTER, BIND, LIMIT — are
//! registered with [`EvalStrategy::Full`] and transparently
//! re-evaluated from scratch each batch; their multiset is still
//! maintained (by diffing successive answers) so subscribers get
//! `added`/`removed` rows and unchanged-tick suppression either way. A
//! query's strategy is chosen once at registration and visible via the
//! registry. Variable predicates are refused at registration: no plan
//! can match them.

use crate::continuous::{ContinuousQuery, ContinuousResult};
use crate::shard::BatchDelta;
use se_core::TripleSource;
use se_rdf::Term;
use se_sparql::ast::Query;
use se_sparql::{ir, CompiledPlan, PlanCache, QueryError, ResultSet};
use std::collections::HashMap;
use std::sync::Arc;

/// How a registered continuous query is evaluated each batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalStrategy {
    /// Semi-naive delta evaluation over the materialized multiset:
    /// per-batch cost O(delta).
    Incremental,
    /// Full re-evaluation per batch (FILTER / BIND / LIMIT), diffed
    /// against the previous answers.
    Full,
}

/// Picks the strategy at registration time. Incremental requires a
/// pure BGP (optionally UNION/DISTINCT) and no LIMIT — everything
/// [`ir::execute_plan_delta`] can run over a batch. (Registration has
/// already refused variable predicates.)
pub(crate) fn choose_strategy(query: &Query) -> EvalStrategy {
    let pure_bgp = query
        .groups
        .iter()
        .all(|g| g.binds.is_empty() && g.filters.is_empty());
    if pure_bgp && query.limit.is_none() {
        EvalStrategy::Incremental
    } else {
        EvalStrategy::Full
    }
}

/// A projected output row: one optional binding per output variable.
type OutRow = Vec<Option<Term>>;

/// A query's materialized answers: projected row → signed derivation
/// count. For [`EvalStrategy::Full`] queries the counts mirror the
/// final output rows instead (so diffing still works).
#[derive(Debug, Clone, Default)]
pub(crate) struct MaterializedState {
    counts: HashMap<OutRow, i64>,
    seeded: bool,
}

impl MaterializedState {
    pub(crate) fn is_seeded(&self) -> bool {
        self.seeded
    }

    /// Applies signed row updates and reports the visible changes:
    /// bag semantics when `distinct` is off (one entry per derivation),
    /// support semantics when it is on (0→positive / positive→0 only).
    fn apply_updates(
        &mut self,
        updates: HashMap<OutRow, i64>,
        distinct: bool,
    ) -> (Vec<OutRow>, Vec<OutRow>) {
        let mut added = Vec::new();
        let mut removed = Vec::new();
        for (row, dw) in updates {
            if dw == 0 {
                continue;
            }
            let old = self.counts.get(&row).copied().unwrap_or(0);
            let new = old + dw;
            debug_assert!(new >= 0, "materialized count went negative: {row:?}");
            if new == 0 {
                self.counts.remove(&row);
            } else {
                self.counts.insert(row.clone(), new);
            }
            if distinct {
                if old <= 0 && new > 0 {
                    added.push(row);
                } else if old > 0 && new <= 0 {
                    removed.push(row);
                }
            } else if dw > 0 {
                added.extend(std::iter::repeat_n(row, dw as usize));
            } else {
                removed.extend(std::iter::repeat_n(row, (-dw) as usize));
            }
        }
        (added, removed)
    }

    /// Replaces the whole multiset (seeding / full re-evaluation),
    /// reporting the same change sets `apply_updates` would.
    fn replace(
        &mut self,
        new_counts: HashMap<OutRow, i64>,
        distinct: bool,
    ) -> (Vec<OutRow>, Vec<OutRow>) {
        let mut updates = new_counts;
        for (row, c) in &self.counts {
            *updates.entry(row.clone()).or_insert(0) -= c;
        }
        self.seeded = true;
        self.apply_updates(updates, distinct)
    }

    /// Materializes the full answer set (count-many repetitions, or one
    /// per row under DISTINCT).
    fn full_rows(&self, distinct: bool) -> Vec<OutRow> {
        let mut rows = Vec::new();
        for (row, &c) in &self.counts {
            if c <= 0 {
                continue;
            }
            let reps = if distinct { 1 } else { c as usize };
            rows.extend(std::iter::repeat_n(row.clone(), reps));
        }
        rows
    }
}

/// The compiled plan one evaluation of `q` runs, with `q`'s constants:
/// the registry's shared plan cache when one is installed (a shape-level
/// lookup, so queries of one shape share one plan), a fresh compile
/// otherwise. An incremental query always runs its bag form — DISTINCT
/// off, so counts track derivations; [`MaterializedState`]'s support
/// semantics restores DISTINCT.
fn query_plan<S: TripleSource + ?Sized>(
    q: &ContinuousQuery,
    store: &S,
    cache: Option<&PlanCache>,
) -> (Arc<CompiledPlan>, Vec<Term>) {
    let bag;
    let query = if q.strategy == EvalStrategy::Incremental && q.query.distinct {
        bag = Query {
            distinct: false,
            ..q.query.clone()
        };
        &bag
    } else {
        &q.query
    };
    match cache {
        Some(cache) => cache.shape_plan(store, query, &q.options),
        None => (
            Arc::new(ir::compile(query, store, &q.options, 0)),
            ir::normalize(query).1,
        ),
    }
}

/// Builds the per-batch answer for one registered query, maintaining
/// its materialized state. `delta` is the batch's captured net change
/// (`None` forces a full evaluation — used for seeding and fallback).
/// `emit_full` controls whether the (potentially large) full answer set
/// is materialized on the incremental path. `cache` is the registry's
/// shared plan cache, if installed.
pub(crate) fn evaluate_query<S: TripleSource + ?Sized>(
    q: &mut ContinuousQuery,
    store: &S,
    delta: Option<&BatchDelta>,
    emit_full: bool,
    cache: Option<&PlanCache>,
) -> Result<ContinuousResult, QueryError> {
    let out_vars = q.query.output_variables();
    let distinct = q.query.distinct;
    let incremental =
        q.strategy == EvalStrategy::Incremental && q.state.is_seeded() && delta.is_some();
    let (added, removed, results) = match delta.filter(|_| incremental) {
        Some(delta) => {
            let updates = if delta.is_empty() {
                HashMap::new()
            } else {
                let (plan, consts) = query_plan(q, store, cache);
                ir::execute_plan_delta(
                    store,
                    &plan,
                    &consts,
                    &delta.added,
                    &delta.removed,
                    &q.options,
                )?
            };
            let (added, removed) = q.state.apply_updates(updates, distinct);
            let rows = if emit_full {
                q.state.full_rows(distinct)
            } else {
                Vec::new()
            };
            (added, removed, rows)
        }
        None => {
            // Seeding, a batch without a captured delta, or the full
            // fallback: one full evaluation.
            let (plan, consts) = query_plan(q, store, cache);
            let rs = ir::execute_plan(store, &plan, &consts, &q.options)?;
            let mut counts: HashMap<OutRow, i64> = HashMap::new();
            for row in &rs.rows {
                *counts.entry(row.clone()).or_insert(0) += 1;
            }
            if q.strategy == EvalStrategy::Incremental {
                // Counts are derivations; the support set is recovered
                // from them.
                let (added, removed) = q.state.replace(counts, distinct);
                (added, removed, q.state.full_rows(distinct))
            } else {
                // Counts mirror the final output rows so the diff (and
                // unchanged-tick detection) still works.
                let (added, removed) = q.state.replace(counts, false);
                (added, removed, rs.rows)
            }
        }
    };
    let rs = |rows: Vec<OutRow>| ResultSet {
        variables: out_vars.clone(),
        rows,
    };
    Ok(ContinuousResult {
        id: q.id.clone(),
        strategy: q.strategy,
        incremental,
        added: rs(added),
        removed: rs(removed),
        results: rs(results),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_sparql::{parse_query, QueryOptions};

    fn strategy(q: &str) -> EvalStrategy {
        choose_strategy(&parse_query(q).unwrap())
    }

    #[test]
    fn strategy_selection() {
        assert_eq!(
            strategy("SELECT ?s WHERE { ?s <http://x/p> ?o }"),
            EvalStrategy::Incremental
        );
        assert_eq!(
            strategy("SELECT DISTINCT ?s WHERE { ?s a <http://x/C> . ?s <http://x/p> ?o }"),
            EvalStrategy::Incremental
        );
        assert_eq!(
            strategy("SELECT ?s WHERE { ?s <http://x/p> ?o } UNION { ?s <http://x/q> ?o }"),
            EvalStrategy::Incremental
        );
        // FILTER, BIND and LIMIT fall back.
        assert_eq!(
            strategy("SELECT ?s WHERE { ?s <http://x/p> ?o FILTER(?o > 3) }"),
            EvalStrategy::Full
        );
        assert_eq!(
            strategy("SELECT ?b WHERE { ?s <http://x/p> ?o BIND(?o AS ?b) }"),
            EvalStrategy::Full
        );
        assert_eq!(
            strategy("SELECT ?s WHERE { ?s <http://x/p> ?o } LIMIT 5"),
            EvalStrategy::Full
        );
        // Variable predicates are refused at registration.
        let err = crate::ContinuousQueryRegistry::new()
            .register("q", "SELECT ?s WHERE { ?s ?p ?o }", QueryOptions::default())
            .unwrap_err();
        assert_eq!(err, QueryError::variable_predicate());
    }

    #[test]
    fn multiset_distinct_vs_bag_changes() {
        let mut st = MaterializedState::default();
        let row = |s: &str| vec![Some(Term::iri(format!("http://x/{s}")))];
        // Two derivations of the same row under DISTINCT: one visible add.
        let (a, r) = st.apply_updates(HashMap::from([(row("a"), 2)]), true);
        assert_eq!((a.len(), r.len()), (1, 0));
        // Dropping one derivation is invisible; dropping the last removes.
        let (a, r) = st.apply_updates(HashMap::from([(row("a"), -1)]), true);
        assert_eq!((a.len(), r.len()), (0, 0));
        let (a, r) = st.apply_updates(HashMap::from([(row("a"), -1)]), true);
        assert_eq!((a.len(), r.len()), (0, 1));
        assert!(st.full_rows(true).is_empty());
        // Bag semantics report every derivation.
        let (a, _) = st.apply_updates(HashMap::from([(row("b"), 2)]), false);
        assert_eq!(a.len(), 2);
        assert_eq!(st.full_rows(false).len(), 2);
        assert_eq!(st.full_rows(true).len(), 1);
    }
}
