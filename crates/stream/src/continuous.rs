//! Continuous queries: parsed SPARQL queries registered once and
//! kept answered against the hybrid view after every ingested batch —
//! the paper's execution model ("these queries are executed once per
//! graph instance", §1) without rebuilding the store per instance, and
//! without re-running the query per instance either: eligible queries
//! are maintained **differentially** from the batch's captured delta
//! (see [`crate::incremental`]), so steady-state evaluation cost is
//! O(delta), not O(store).
//!
//! [`StreamSession`] drives a [`ShardedHybridStore`]. With more than one
//! registered query the registry evaluates them concurrently over the
//! shared view as jobs on the store's persistent [`ShardRuntime`] when it
//! runs one, sequentially otherwise.

use crate::error::StreamError;
use crate::incremental::{self, choose_strategy, EvalStrategy, MaterializedState};
use crate::runtime::ShardRuntime;
use crate::shard::{BatchDelta, IngestReport, ShardedHybridStore};
use crate::wal::WalRecord;
use se_core::TripleSource;
use se_rdf::{Graph, Term};
use se_sparql::ast::{Query, TermPattern};
use se_sparql::{parse_query, PlanCache, QueryError, QueryOptions, ResultSet};
use std::sync::Arc;

/// The batch — `(inserts, deletes)` — that a WAL record replays as on a
/// store at `epoch`, under the consecutive-epoch invariant: the record
/// must carry exactly `epoch + 1` (anything else is a gap or a replayed
/// duplicate — the caller re-syncs instead of guessing). `apply` runs
/// deletes before inserts, so the delta's removals replay before its
/// additions. Every replay path goes through here: [`replay_record`]
/// (and with it crash recovery) and [`StreamSession::replay_record`].
fn record_batch(rec: &WalRecord, epoch: u64) -> Result<(Graph, Graph), StreamError> {
    if rec.epoch != epoch + 1 {
        return Err(StreamError::Corrupt(format!(
            "replication gap: expected epoch {}, record carries {}",
            epoch + 1,
            rec.epoch
        )));
    }
    Ok((
        Graph::from_triples(rec.delta.added.iter().cloned()),
        Graph::from_triples(rec.delta.removed.iter().cloned()),
    ))
}

/// Replays one shipped or logged WAL record into a store. The record
/// must carry exactly `store.epoch() + 1`; anything else is a gap or a
/// replayed duplicate, refused with no change to the store. A follower
/// with continuous queries replays through
/// [`StreamSession::replay_record`] instead.
pub fn replay_record(
    store: &mut ShardedHybridStore,
    rec: &WalRecord,
) -> Result<IngestReport, StreamError> {
    let (inserts, deletes) = record_batch(rec, store.epoch())?;
    let report = store.apply(&inserts, &deletes)?;
    debug_assert_eq!(store.epoch(), rec.epoch, "apply advances exactly one epoch");
    Ok(report)
}

/// One registered continuous query, with its materialized answers.
#[derive(Debug, Clone)]
pub struct ContinuousQuery {
    /// Caller-chosen identifier (reported with every result).
    pub id: String,
    /// The original SPARQL text — retained so a session checkpoint
    /// ([`StreamSession::save`](crate::persist)) can re-register the
    /// query verbatim after a restart.
    pub text: String,
    /// The parsed query (parsed once at registration).
    pub query: Query,
    /// Execution options (reasoning on/off, optimizer switches).
    pub options: QueryOptions,
    /// Evaluation strategy, chosen once at registration.
    pub(crate) strategy: EvalStrategy,
    /// The materialized multiset (seeded by the first evaluation).
    pub(crate) state: MaterializedState,
}

impl ContinuousQuery {
    /// How this query is evaluated each batch.
    pub fn strategy(&self) -> EvalStrategy {
        self.strategy
    }

    /// `true` once the materialized multiset holds the query's answers
    /// (after its first evaluation).
    pub fn is_seeded(&self) -> bool {
        self.state.is_seeded()
    }
}

/// The answer of one continuous query after a batch: the per-batch
/// changes, plus (optionally) the full set.
#[derive(Debug, Clone)]
pub struct ContinuousResult {
    /// The query's registration id.
    pub id: String,
    /// Its full answer set over the post-batch view. Empty when the
    /// registry's `emit_full` is off and the delta path ran — the
    /// changes below are then the whole story.
    pub results: ResultSet,
    /// Rows that entered the answer set this batch. On the query's
    /// first (seeding) evaluation this is the entire answer set.
    pub added: ResultSet,
    /// Rows that left the answer set this batch.
    pub removed: ResultSet,
    /// The query's registered strategy.
    pub strategy: EvalStrategy,
    /// Whether this batch was served by the delta path (`false` for the
    /// seeding evaluation and for [`EvalStrategy::Full`] queries).
    pub incremental: bool,
}

impl ContinuousResult {
    /// `true` if the batch left this query's answers untouched.
    pub fn unchanged(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// Holds parsed continuous queries and their materialized answers, and
/// evaluates them on demand.
#[derive(Debug, Clone)]
pub struct ContinuousQueryRegistry {
    queries: Vec<ContinuousQuery>,
    emit_full: bool,
    /// Shared compiled-plan cache: every evaluation — seeding, delta and
    /// full fallback — takes its plan from it (shape-level reuse across
    /// queries and with the server's QUERY path), so a re-registered or
    /// same-shape query skips optimize entirely. `None` compiles a fresh
    /// plan for every evaluation.
    plan_cache: Option<Arc<PlanCache>>,
}

impl Default for ContinuousQueryRegistry {
    fn default() -> Self {
        Self {
            queries: Vec::new(),
            emit_full: true,
            plan_cache: None,
        }
    }
}

impl ContinuousQueryRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses and registers a query under `id`, choosing its
    /// [`EvalStrategy`]. Re-registering an id replaces the previous
    /// query and drops its materialized state; the next evaluation
    /// seeds afresh from the store (mid-stream registrations therefore
    /// pick up all pre-existing state). Deltas the store captured while
    /// the query was unregistered are irrelevant by construction. A
    /// query with a variable predicate is refused
    /// ([`QueryError::Unsupported`]): it could never be answered, and
    /// registering it would fail every later batch.
    pub fn register(
        &mut self,
        id: impl Into<String>,
        text: &str,
        options: QueryOptions,
    ) -> Result<(), QueryError> {
        let id = id.into();
        let query = parse_query(text)?;
        let variable_predicate = query
            .groups
            .iter()
            .flat_map(|g| &g.patterns)
            .any(|tp| !matches!(tp.predicate, TermPattern::Term(Term::Iri(_))));
        if variable_predicate {
            return Err(QueryError::variable_predicate());
        }
        self.queries.retain(|q| q.id != id);
        let strategy = choose_strategy(&query);
        self.queries.push(ContinuousQuery {
            id,
            text: text.to_string(),
            query,
            options,
            strategy,
            state: MaterializedState::default(),
        });
        Ok(())
    }

    /// Removes the query registered under `id` — and frees its
    /// materialized multiset; returns whether it existed.
    pub fn deregister(&mut self, id: &str) -> bool {
        let before = self.queries.len();
        self.queries.retain(|q| q.id != id);
        self.queries.len() != before
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// `true` if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The registered queries, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &ContinuousQuery> + '_ {
        self.queries.iter()
    }

    /// Registered queries per strategy: `(incremental, full)`.
    pub fn strategy_counts(&self) -> (usize, usize) {
        let incr = self
            .queries
            .iter()
            .filter(|q| q.strategy == EvalStrategy::Incremental)
            .count();
        (incr, self.queries.len() - incr)
    }

    /// `true` if any registered query can use a captured batch delta.
    pub fn wants_delta(&self) -> bool {
        self.queries
            .iter()
            .any(|q| q.strategy == EvalStrategy::Incremental)
    }

    /// Demotes the query registered under `id` to full re-evaluation
    /// (dropping its materialized counts); returns whether it existed.
    /// Benchmarks use this to compare the two paths on equal footing.
    pub fn force_full(&mut self, id: &str) -> bool {
        match self.queries.iter_mut().find(|q| q.id == id) {
            Some(q) => {
                q.strategy = EvalStrategy::Full;
                q.state = MaterializedState::default();
                true
            }
            None => false,
        }
    }

    /// Whether evaluations materialize the full answer set on the delta
    /// path (on by default). Turning it off makes [`ContinuousResult::
    /// results`] empty for delta-served batches — subscribers that only
    /// consume changes skip the O(result) copy per tick.
    pub fn set_emit_full(&mut self, on: bool) {
        self.emit_full = on;
    }

    /// Takes every evaluation's compiled plan — seeding, delta and full
    /// fallback — from `cache` (shared with other consumers, e.g. the
    /// server's QUERY path): queries of one shape share one plan.
    pub fn set_plan_cache(&mut self, cache: Arc<PlanCache>) {
        self.plan_cache = Some(cache);
    }

    /// The shared plan cache, if one is installed.
    pub fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.plan_cache.as_ref()
    }

    /// Evaluates every registered query against `source`, sequentially.
    /// Without a captured delta every query (re-)seeds from the store —
    /// results are always the query's exact answers over `source`.
    pub fn evaluate_all<S: TripleSource + ?Sized>(
        &mut self,
        source: &S,
    ) -> Result<Vec<ContinuousResult>, QueryError> {
        self.evaluate_with(source, None, None)
    }

    /// Evaluates every registered query against `source` as jobs on a
    /// store's persistent [`ShardRuntime`] — no per-batch thread spawns.
    /// The runtime distributes the queries over its currently-idle
    /// workers (ones busy with a background rebuild are skipped) and the
    /// call blocks until all have answered, so the borrows of `source`
    /// never outlive the call. Falls back to the sequential path when at
    /// most one query is registered. Results keep registration order.
    pub fn evaluate_all_pooled<S: TripleSource + ?Sized>(
        &mut self,
        runtime: &ShardRuntime,
        source: &S,
    ) -> Result<Vec<ContinuousResult>, QueryError> {
        self.evaluate_with(source, None, Some(runtime))
    }

    /// The one evaluation driver behind every public variant: runs
    /// [`incremental::evaluate_query`] once per registered query —
    /// delta-fed for seeded incremental queries, full otherwise — as jobs
    /// on `runtime` when one is given and more than one query is
    /// registered, one after another on the calling thread otherwise.
    fn evaluate_with<S: TripleSource + ?Sized>(
        &mut self,
        source: &S,
        delta: Option<&BatchDelta>,
        runtime: Option<&ShardRuntime>,
    ) -> Result<Vec<ContinuousResult>, QueryError> {
        let emit_full = self.emit_full;
        let cache = self.plan_cache.clone();
        let eval = |q: &mut ContinuousQuery| {
            incremental::evaluate_query(q, source, delta, emit_full, cache.as_deref())
        };
        let answers: Vec<Result<ContinuousResult, QueryError>> = match runtime {
            Some(runtime) if self.queries.len() > 1 => {
                let mut slots: Vec<Option<Result<ContinuousResult, QueryError>>> =
                    (0..self.queries.len()).map(|_| None).collect();
                let eval = &eval;
                let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = self
                    .queries
                    .iter_mut()
                    .zip(slots.iter_mut())
                    .map(|(q, slot)| {
                        Box::new(move || {
                            *slot = Some(eval(q));
                        }) as Box<dyn FnOnce() + Send + '_>
                    })
                    .collect();
                if let Err(msg) = runtime.run_scoped(tasks) {
                    // A panicking query worker panics the caller, payload
                    // preserved.
                    panic!("query worker panicked: {msg}");
                }
                slots
                    .into_iter()
                    .map(|slot| slot.expect("run_scoped ran every task"))
                    .collect()
            }
            _ => self.queries.iter_mut().map(eval).collect(),
        };
        answers.into_iter().collect()
    }
}

/// Outcome of one streamed batch: what the ingest did plus every
/// continuous-query answer over the new state.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Ingest accounting (insert/delete/no-op counts, compaction flag,
    /// and — when any incremental query is registered — the captured
    /// net [`BatchDelta`]).
    pub report: IngestReport,
    /// Continuous-query answers, in registration order.
    pub results: Vec<ContinuousResult>,
}

/// Session counters: how continuous queries were served and how big the
/// captured batch deltas were, so the incremental-vs-fallback rate is
/// observable. Plan-cache and WAL counters live with their owners
/// ([`PlanCache::stats`], [`ShardedHybridStore::wal_health`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Batches applied through the session.
    pub batches: u64,
    /// Query evaluations served by the delta path.
    pub incremental_evals: u64,
    /// Full (re-)evaluations: seeding, fallback queries, and batches
    /// without a captured delta.
    pub full_evals: u64,
    /// Net triples added across all captured batch deltas.
    pub delta_added: u64,
    /// Net triples removed across all captured batch deltas.
    pub delta_removed: u64,
    /// Net added/removed sizes of the most recent captured delta.
    pub last_delta_added: u64,
    /// See [`StreamStats::last_delta_added`].
    pub last_delta_removed: u64,
}

impl StreamStats {
    fn record(&mut self, report: &IngestReport, results: &[ContinuousResult]) {
        self.batches += 1;
        if let Some(delta) = &report.delta {
            let (a, r) = (delta.added.len() as u64, delta.removed.len() as u64);
            self.delta_added += a;
            self.delta_removed += r;
            self.last_delta_added = a;
            self.last_delta_removed = r;
        }
        for res in results {
            if res.incremental {
                self.incremental_evals += 1;
            } else {
                self.full_evals += 1;
            }
        }
    }
}

/// A streaming session: a [`ShardedHybridStore`] plus a
/// [`ContinuousQueryRegistry`], driven batch by batch.
#[derive(Debug)]
pub struct StreamSession {
    store: ShardedHybridStore,
    registry: ContinuousQueryRegistry,
    stats: StreamStats,
    /// Keep per-batch delta capture on even with no incremental query
    /// registered — a leader shipping WAL records to replicas needs
    /// every tick's net delta regardless of its own subscriptions.
    force_delta_capture: bool,
}

impl StreamSession {
    /// Wraps an existing store.
    pub fn new(store: ShardedHybridStore) -> Self {
        Self {
            store,
            registry: ContinuousQueryRegistry::new(),
            stats: StreamStats::default(),
            force_delta_capture: false,
        }
    }

    /// Forces per-batch delta capture on (or releases the force),
    /// independent of whether any registered query wants deltas. The
    /// server turns this on while replicas are attached so every tick's
    /// net delta is available to ship.
    pub fn set_force_delta_capture(&mut self, on: bool) {
        self.force_delta_capture = on;
    }

    /// Parses and registers a continuous query (see
    /// [`ContinuousQueryRegistry::register`]). The next batch (or
    /// evaluation) seeds its materialized answers with one full run
    /// over the current store state.
    pub fn register_query(
        &mut self,
        id: impl Into<String>,
        text: &str,
        options: QueryOptions,
    ) -> Result<(), QueryError> {
        self.registry.register(id, text, options)
    }

    /// The underlying store.
    pub fn store(&self) -> &ShardedHybridStore {
        &self.store
    }

    /// Mutable access (manual compaction, policy changes).
    pub fn store_mut(&mut self) -> &mut ShardedHybridStore {
        &mut self.store
    }

    /// The query registry.
    pub fn registry(&self) -> &ContinuousQueryRegistry {
        &self.registry
    }

    /// Mutable registry access (re-registering, deregistering).
    pub fn registry_mut(&mut self) -> &mut ContinuousQueryRegistry {
        &mut self.registry
    }

    /// The store and the mutable registry together — for evaluating the
    /// registry against the session's own store outside `apply_batch`.
    pub fn parts_mut(&mut self) -> (&ShardedHybridStore, &mut ContinuousQueryRegistry) {
        (&self.store, &mut self.registry)
    }

    /// Session counters: delta sizes and incremental-vs-full evaluations.
    pub fn stream_stats(&self) -> StreamStats {
        self.stats
    }

    /// Replays one shipped WAL record as the session's next batch (see
    /// [`replay_record`]): the store advances exactly one epoch, and
    /// every registered query is brought up to date as by
    /// [`StreamSession::apply_batch`]. A record out of epoch order is
    /// refused and changes nothing.
    pub fn replay_record(&mut self, rec: &WalRecord) -> Result<BatchOutcome, StreamError> {
        let (inserts, deletes) = record_batch(rec, self.store.epoch())?;
        self.apply_batch(&inserts, &deletes)
    }

    /// Ingests one batch (deletes, then inserts), compacts if the policy
    /// demands it, and brings every registered query's answers up to
    /// date over the new state — differentially from the batch's
    /// captured delta where possible, by full re-evaluation otherwise.
    /// Evaluation runs on the store's persistent worker pool when it has
    /// one (sharing the ingest workers' thread budget), otherwise
    /// sequentially on the calling thread.
    pub fn apply_batch(
        &mut self,
        inserts: &Graph,
        deletes: &Graph,
    ) -> Result<BatchOutcome, StreamError> {
        self.store
            .set_delta_capture(self.force_delta_capture || self.registry.wants_delta());
        let report = self.store.apply(inserts, deletes)?;
        // Publish the post-batch epoch so cached plans compiled against
        // much older cardinalities re-cost on their next use. The
        // store's epoch, not the session's batch count: a store loaded
        // from disk (or applied outside this session) is already past
        // batch 0, and the plan cache's staleness clock must follow the
        // store's true age.
        if let Some(cache) = self.registry.plan_cache() {
            cache.set_epoch(self.store.epoch());
        }
        let results = self.registry.evaluate_with(
            &self.store,
            report.delta.as_ref(),
            self.store.runtime(),
        )?;
        self.stats.record(&report, &results);
        Ok(BatchOutcome { report, results })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::CompactionPolicy;
    use se_ontology::Ontology;
    use se_rdf::Triple;

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://x/{s}"))
    }

    fn t(s: &str, p: &str, o: Term) -> Triple {
        Triple::new(iri(s), Term::iri(format!("http://x/{p}")), o)
    }

    fn ontology() -> Ontology {
        let mut o = Ontology::new();
        o.add_object_property("http://x/knows");
        o.add_object_property("http://x/likes");
        o
    }

    fn store_with(triples: impl IntoIterator<Item = Triple>) -> ShardedHybridStore {
        ShardedHybridStore::build(&ontology(), &Graph::from_triples(triples), 1).unwrap()
    }

    #[test]
    fn reregistering_an_id_replaces_the_query() {
        let store = store_with([t("a", "knows", iri("b")), t("a", "likes", iri("c"))]);
        let mut reg = ContinuousQueryRegistry::new();
        reg.register(
            "q",
            "PREFIX e: <http://x/> SELECT ?o WHERE { e:a e:knows ?o }",
            QueryOptions::default(),
        )
        .unwrap();
        assert_eq!(reg.evaluate_all(&store).unwrap()[0].results.len(), 1);
        // Same id, different query: the old one must be gone, position
        // and count unchanged.
        reg.register(
            "q",
            "PREFIX e: <http://x/> SELECT ?o WHERE { e:a e:likes ?o }",
            QueryOptions::default(),
        )
        .unwrap();
        assert_eq!(reg.len(), 1);
        let results = reg.evaluate_all(&store).unwrap();
        assert_eq!(results[0].id, "q");
        let row = &results[0].results.rows[0];
        assert_eq!(row[0].as_ref().unwrap(), &iri("c"));
        // The replacement re-seeded: its whole answer set is "added".
        assert_eq!(results[0].added.len(), 1);
        assert!(!results[0].incremental);
    }

    #[test]
    fn deregister_removes_and_reports() {
        let mut reg = ContinuousQueryRegistry::new();
        reg.register(
            "one",
            "PREFIX e: <http://x/> SELECT ?o WHERE { e:a e:knows ?o }",
            QueryOptions::default(),
        )
        .unwrap();
        reg.register(
            "two",
            "PREFIX e: <http://x/> SELECT ?o WHERE { e:a e:likes ?o }",
            QueryOptions::default(),
        )
        .unwrap();
        assert!(reg.deregister("one"));
        assert!(!reg.deregister("one"), "second removal reports absence");
        assert_eq!(reg.len(), 1);
        assert!(!reg.is_empty());
        let ids: Vec<&str> = reg.iter().map(|q| q.id.as_str()).collect();
        assert_eq!(ids, vec!["two"]);
        assert!(reg.deregister("two"));
        assert!(reg.is_empty());
    }

    #[test]
    fn registration_rejects_unparseable_queries() {
        let mut reg = ContinuousQueryRegistry::new();
        assert!(reg
            .register("bad", "SELECT WHERE {", QueryOptions::default())
            .is_err());
        assert!(reg.is_empty(), "failed registration leaves no residue");
    }

    /// A variable-predicate query is refused at registration: were it
    /// registered, every later batch would fail after the store had
    /// already applied it.
    #[test]
    fn variable_predicate_is_refused_and_later_batches_apply() {
        let mut session = StreamSession::new(store_with([t("a", "knows", iri("b"))]));
        let err = session
            .register_query(
                "bad",
                "SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
                QueryOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(err, QueryError::Unsupported(_)), "{err}");
        assert!(session.registry().is_empty());
        let out = session
            .apply_batch(
                &Graph::from_triples([t("c", "knows", iri("d"))]),
                &Graph::new(),
            )
            .unwrap();
        assert!(out.results.is_empty());
        assert_eq!(session.store().epoch(), 1);
    }

    /// Two incremental queries of one shape share one cached plan, and
    /// the delta rule binds each query's own constant into it: a walk
    /// that read the plan template's constant would hand station 2 the
    /// changes of station 1.
    #[test]
    fn same_shape_delta_evaluations_bind_their_own_constants() {
        const HOSTS: &str = "http://www.w3.org/ns/sosa/hosts";
        let query = |st: usize| {
            format!("SELECT ?o WHERE {{ <http://example.org/station/{st}> <{HOSTS}> ?o }}")
        };
        let hosts = |st: usize, sensor: &str| {
            Triple::new(
                Term::iri(format!("http://example.org/station/{st}")),
                Term::iri(HOSTS),
                iri(sensor),
            )
        };
        let mut onto = Ontology::new();
        onto.add_object_property(HOSTS);
        let store = ShardedHybridStore::build(
            &onto,
            &Graph::from_triples([hosts(1, "s0"), hosts(2, "s1")]),
            1,
        )
        .unwrap();
        let mut session = StreamSession::new(store);
        let cache = Arc::new(PlanCache::new());
        session.registry_mut().set_plan_cache(cache.clone());
        for st in [1, 2] {
            session
                .register_query(format!("st{st}"), &query(st), QueryOptions::default())
                .unwrap();
        }
        let batches = [
            (vec![], vec![]),
            (vec![hosts(1, "s2")], vec![]),
            (vec![hosts(2, "s3"), hosts(2, "s4")], vec![hosts(1, "s0")]),
            (vec![hosts(1, "s5")], vec![hosts(2, "s1"), hosts(2, "s3")]),
            (vec![hosts(2, "s0"), hosts(1, "s1")], vec![hosts(1, "s2")]),
        ];
        let sorted = |rows: &[Vec<Option<Term>>]| {
            let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
            v.sort();
            v
        };
        // Multiset difference of two sorted row lists.
        let minus = |a: &[String], b: &[String]| {
            let mut rest = b.to_vec();
            a.iter()
                .filter(|x| match rest.iter().position(|y| y == *x) {
                    Some(i) => {
                        rest.swap_remove(i);
                        false
                    }
                    None => true,
                })
                .cloned()
                .collect::<Vec<_>>()
        };
        let mut before = vec![Vec::new(); 2];
        for (round, (inserts, deletes)) in batches.into_iter().enumerate() {
            let out = session
                .apply_batch(&Graph::from_triples(inserts), &Graph::from_triples(deletes))
                .unwrap();
            for (i, res) in out.results.iter().enumerate() {
                let fresh = se_sparql::execute_query(
                    session.store(),
                    &query(i + 1),
                    &QueryOptions::default(),
                )
                .unwrap();
                let fresh = sorted(&fresh.rows);
                assert_eq!(sorted(&res.results.rows), fresh, "round {round} {}", res.id);
                assert_eq!(sorted(&res.added.rows), minus(&fresh, &before[i]));
                assert_eq!(sorted(&res.removed.rows), minus(&before[i], &fresh));
                assert_eq!(res.incremental, round > 0, "seeded once, then delta-served");
                before[i] = fresh;
            }
            assert_eq!(cache.stats().compiles, 1, "one shape, one compile");
        }
    }

    /// Continuous-query answers must be identical on the batch that
    /// crosses a compaction boundary and on the batches around it — the
    /// registry never notices the baseline swap.
    #[test]
    fn results_stable_across_compaction_boundary() {
        let store = store_with([t("a", "knows", iri("hub"))])
            .with_policy(CompactionPolicy { max_overlay: 3 })
            .with_background_compaction(false);
        let mut session = StreamSession::new(store);
        session
            .register_query(
                "members",
                "PREFIX e: <http://x/> SELECT ?s WHERE { ?s e:knows e:hub }",
                QueryOptions::default(),
            )
            .unwrap();
        let mut expected = 1usize;
        let mut crossed = false;
        for round in 0..6 {
            let inserts = Graph::from_triples([t(&format!("n{round}"), "knows", iri("hub"))]);
            let out = session.apply_batch(&inserts, &Graph::new()).unwrap();
            expected += 1;
            assert_eq!(
                out.results[0].results.len(),
                expected,
                "round {round}: answer drifted (compacted={})",
                out.report.compacted
            );
            crossed |= out.report.compacted;
            if round > 0 {
                // After the seeding batch every round is delta-served
                // and reports exactly the inserted row as added.
                assert!(out.results[0].incremental);
                assert_eq!(out.results[0].added.len(), 1);
                assert!(out.results[0].removed.is_empty());
            }
        }
        assert!(crossed, "the stream must cross a compaction boundary");
        let stats = session.stream_stats();
        assert_eq!(stats.batches, 6);
        assert_eq!(stats.incremental_evals, 5);
        assert_eq!(stats.full_evals, 1, "only the seeding run was full");
        assert_eq!(stats.delta_added, 6);
        assert_eq!(stats.last_delta_added, 1);
        // Evaluating again without a batch gives the same answers —
        // pooled and sequential paths agree.
        let runtime = ShardRuntime::new(2);
        let (store, reg) = session.parts_mut();
        let seq = reg.evaluate_all(store).unwrap();
        let pooled = reg.evaluate_all_pooled(&runtime, store).unwrap();
        assert_eq!(seq.len(), pooled.len());
        assert_eq!(seq[0].results.rows.len(), pooled[0].results.rows.len());
    }

    /// A query registered mid-stream seeds from the store state that
    /// accumulated before registration.
    #[test]
    fn mid_stream_registration_picks_up_existing_state() {
        let mut session = StreamSession::new(store_with([t("a", "knows", iri("hub"))]));
        session
            .apply_batch(
                &Graph::from_triples([t("b", "knows", iri("hub"))]),
                &Graph::new(),
            )
            .unwrap();
        session
            .register_query(
                "late",
                "PREFIX e: <http://x/> SELECT ?s WHERE { ?s e:knows e:hub }",
                QueryOptions::default(),
            )
            .unwrap();
        assert_eq!(
            session.registry().iter().next().unwrap().strategy(),
            EvalStrategy::Incremental
        );
        let out = session
            .apply_batch(
                &Graph::from_triples([t("c", "knows", iri("hub"))]),
                &Graph::new(),
            )
            .unwrap();
        // Seeding run: full evaluation, everything reported as added —
        // including the pre-registration triples.
        assert!(!out.results[0].incremental);
        assert_eq!(out.results[0].results.len(), 3);
        assert_eq!(out.results[0].added.len(), 3);
        // From here on, delta-served.
        let out = session
            .apply_batch(
                &Graph::new(),
                &Graph::from_triples([t("b", "knows", iri("hub"))]),
            )
            .unwrap();
        assert!(out.results[0].incremental);
        assert_eq!(out.results[0].removed.len(), 1);
        assert_eq!(out.results[0].results.len(), 2);
    }

    /// Deregistering frees the materialized state; re-registering the
    /// same id starts unseeded and re-seeds on the next evaluation.
    #[test]
    fn reregister_after_deregister_reseeds() {
        let mut session = StreamSession::new(store_with([t("a", "knows", iri("hub"))]));
        let q = "PREFIX e: <http://x/> SELECT ?s WHERE { ?s e:knows e:hub }";
        session
            .register_query("q", q, QueryOptions::default())
            .unwrap();
        session
            .apply_batch(
                &Graph::from_triples([t("b", "knows", iri("hub"))]),
                &Graph::new(),
            )
            .unwrap();
        assert!(session.registry().iter().next().unwrap().is_seeded());
        assert!(session.registry_mut().deregister("q"));
        assert!(session.registry().is_empty(), "state freed with the query");
        session
            .register_query("q", q, QueryOptions::default())
            .unwrap();
        assert!(!session.registry().iter().next().unwrap().is_seeded());
        let out = session
            .apply_batch(
                &Graph::from_triples([t("c", "knows", iri("hub"))]),
                &Graph::new(),
            )
            .unwrap();
        assert!(
            !out.results[0].incremental,
            "first run after re-register seeds"
        );
        assert_eq!(out.results[0].results.len(), 3);
        assert!(session.registry().iter().next().unwrap().is_seeded());
    }

    /// A batch that deletes a triple a rider in the same tick re-inserts
    /// (Restored / Cancelled overlay states) nets to no delta — and the
    /// incremental path reports no changes.
    #[test]
    fn same_tick_delete_and_reinsert_nets_to_unchanged() {
        let mut session = StreamSession::new(store_with([t("a", "knows", iri("hub"))]));
        session
            .register_query(
                "q",
                "PREFIX e: <http://x/> SELECT ?s WHERE { ?s e:knows e:hub }",
                QueryOptions::default(),
            )
            .unwrap();
        session.apply_batch(&Graph::new(), &Graph::new()).unwrap();
        // Restored: delete a baseline triple and re-insert it in the
        // same batch (deletes run first). Cancelled: insert a brand-new
        // triple and delete it in the same batch — net nothing.
        let both = Graph::from_triples([t("a", "knows", iri("hub"))]);
        let out = session.apply_batch(&both, &both).unwrap();
        assert!(out.results[0].incremental);
        assert!(out.results[0].unchanged());
        assert_eq!(out.results[0].results.len(), 1);
        let delta = out.report.delta.as_ref().expect("capture was on");
        assert!(delta.is_empty(), "delete+reinsert nets to zero");
        // And a genuinely new triple alongside a net-zero pair is the
        // only change reported.
        let out = session
            .apply_batch(
                &Graph::from_triples([t("a", "knows", iri("hub")), t("d", "knows", iri("hub"))]),
                &both,
            )
            .unwrap();
        assert!(out.results[0].incremental);
        assert_eq!(out.results[0].added.len(), 1);
        assert!(out.results[0].removed.is_empty());
    }

    /// FILTER queries fall back to full evaluation but still report
    /// per-batch changes by diffing.
    #[test]
    fn full_fallback_reports_diffs() {
        let mut session = StreamSession::new(store_with([t("a", "knows", iri("hub"))]));
        session
            .register_query(
                "q",
                "PREFIX e: <http://x/> SELECT ?s WHERE { ?s e:knows ?o FILTER(?o = e:hub) }",
                QueryOptions::default(),
            )
            .unwrap();
        assert_eq!(
            session.registry().iter().next().unwrap().strategy(),
            EvalStrategy::Full
        );
        let out = session
            .apply_batch(
                &Graph::from_triples([t("b", "knows", iri("hub"))]),
                &Graph::new(),
            )
            .unwrap();
        assert!(!out.results[0].incremental);
        assert_eq!(out.results[0].results.len(), 2);
        let out = session
            .apply_batch(
                &Graph::from_triples([t("c", "knows", iri("elsewhere"))]),
                &Graph::new(),
            )
            .unwrap();
        assert!(
            out.results[0].unchanged(),
            "filtered-out insert changes nothing"
        );
        let out = session
            .apply_batch(
                &Graph::new(),
                &Graph::from_triples([t("b", "knows", iri("hub"))]),
            )
            .unwrap();
        assert_eq!(out.results[0].removed.len(), 1);
        assert_eq!(session.stream_stats().incremental_evals, 0);
        assert_eq!(
            session.stream_stats().full_evals,
            3,
            "every batch re-evaluates"
        );
    }

    /// With a shared plan cache installed, seeding and fallback
    /// evaluations produce identical answers to the uncached path,
    /// and the registry's cache counts them.
    #[test]
    fn plan_cache_on_registry_agrees_and_is_counted() {
        let q = "PREFIX e: <http://x/> SELECT ?s WHERE { ?s e:knows ?o FILTER(?o = e:hub) }";
        let triples = [t("a", "knows", iri("hub")), t("b", "knows", iri("hub"))];
        let mut plain = StreamSession::new(store_with(triples.clone()));
        let mut cached = StreamSession::new(store_with(triples));
        let cache = Arc::new(PlanCache::new());
        cached.registry_mut().set_plan_cache(cache.clone());
        for session in [&mut plain, &mut cached] {
            session
                .register_query("q", q, QueryOptions::default())
                .unwrap();
        }
        for round in 0..3 {
            let inserts = Graph::from_triples([t(&format!("n{round}"), "knows", iri("hub"))]);
            let a = plain.apply_batch(&inserts, &Graph::new()).unwrap();
            let b = cached.apply_batch(&inserts, &Graph::new()).unwrap();
            let rows = |r: &BatchOutcome| {
                let mut v: Vec<String> = r.results[0]
                    .results
                    .rows
                    .iter()
                    .map(|row| format!("{row:?}"))
                    .collect();
                v.sort();
                v
            };
            assert_eq!(rows(&a), rows(&b), "round {round}");
        }
        // This FILTER query re-evaluates fully every batch: one compile,
        // then shape-level hits with zero parsing.
        let stats = cached.registry().plan_cache().unwrap().stats();
        assert_eq!(stats.compiles, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        assert!(plain.registry().plan_cache().is_none());
    }

    /// Regression: embedded callers that apply batches straight to the
    /// engine (no `StreamSession`) must still advance the plan cache's
    /// staleness clock — the epoch used to be published only from
    /// `StreamSession::apply_batch`, so direct applies never re-costed.
    #[test]
    fn direct_engine_apply_publishes_plan_cache_epoch() {
        use se_sparql::{PlanCache, PlanCacheConfig};
        let config = || PlanCacheConfig {
            recost_epochs: 2,
            ..PlanCacheConfig::default()
        };
        let q = "PREFIX e: <http://x/> SELECT ?o WHERE { e:a e:knows ?o }";
        let opts = QueryOptions::default();

        let mut store = store_with([t("a", "knows", iri("b"))]);
        let cache = Arc::new(PlanCache::with_config(config()));
        store.set_plan_cache(Arc::clone(&cache));
        cache.execute_text(&store, q, &opts).unwrap();
        assert_eq!(cache.stats().recosts, 0);
        for i in 0..3 {
            let g = Graph::from_triples([t("a", "knows", iri(&format!("n{i}")))]);
            store.apply(&g, &Graph::new()).unwrap();
        }
        cache.execute_text(&store, q, &opts).unwrap();
        assert_eq!(
            cache.stats().recosts,
            1,
            "one shard: the plan compiled at epoch 0 re-costs after 3 direct applies"
        );

        let mut sharded = ShardedHybridStore::build(
            &ontology(),
            &Graph::from_triples([t("a", "knows", iri("b"))]),
            2,
        )
        .unwrap();
        let cache = Arc::new(PlanCache::with_config(config()));
        sharded.set_plan_cache(Arc::clone(&cache));
        cache.execute_text(&sharded, q, &opts).unwrap();
        for i in 0..3 {
            let g = Graph::from_triples([t("a", "knows", iri(&format!("n{i}")))]);
            sharded.apply(&g, &Graph::new()).unwrap();
        }
        cache.execute_text(&sharded, q, &opts).unwrap();
        assert_eq!(cache.stats().recosts, 1, "two shards: same staleness clock");
    }

    /// The session's store surfaces WAL durability degradation instead
    /// of letting a poisoned log fail writes silently behind read traffic.
    #[test]
    fn stream_stats_surface_wal_health() {
        let dir = std::env::temp_dir().join(format!("se-cq-walhealth-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut store = store_with([t("a", "knows", iri("b"))]);
        store
            .attach_wal(&dir, crate::wal::WalConfig::default())
            .unwrap();
        let mut session = StreamSession::new(store);
        let health = session.store().wal_health();
        assert_eq!((health.poisoned, health.appends_failed), (false, 0));

        crate::fault::arm(&dir, 0, crate::fault::FaultMode::Fail);
        let g = Graph::from_triples([t("a", "knows", iri("c"))]);
        assert!(session.apply_batch(&g, &Graph::new()).is_err());
        crate::fault::disarm(&dir);
        assert!(session.apply_batch(&g, &Graph::new()).is_err());

        let health = session.store().wal_health();
        assert!(health.poisoned);
        assert_eq!(health.appends_failed, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Replay — into a bare store or through a session, as a replica
    /// does — must apply exactly-once in order and reject anything else.
    #[test]
    fn replay_record_enforces_the_consecutive_epoch_invariant() {
        let mut store = store_with([]);
        let rec = |epoch: u64, n: u64| WalRecord {
            epoch,
            delta: BatchDelta {
                added: vec![t(&format!("s{n}"), "knows", iri("o"))],
                removed: vec![],
            },
        };
        replay_record(&mut store, &rec(1, 1)).unwrap();
        replay_record(&mut store, &rec(2, 2)).unwrap();
        assert_eq!(store.epoch(), 2);
        assert_eq!(store.len(), 2);
        // A gap or a replayed duplicate would silently fork history.
        assert!(replay_record(&mut store, &rec(4, 3)).is_err());
        assert!(replay_record(&mut store, &rec(2, 2)).is_err());
        assert_eq!(store.epoch(), 2, "rejected records change nothing");
        // Deletions replay too.
        let mut del = rec(3, 9);
        del.delta.removed = vec![t("s1", "knows", iri("o"))];
        let report = replay_record(&mut store, &del).unwrap();
        assert_eq!((report.inserted, report.deleted), (1, 1));
        assert_eq!(store.epoch(), 3);

        // A session replays under the same rule and keeps its queries
        // up to date.
        let mut session = StreamSession::new(store);
        session
            .register_query(
                "q",
                "PREFIX e: <http://x/> SELECT ?s WHERE { ?s e:knows e:o }",
                QueryOptions::default(),
            )
            .unwrap();
        assert!(session.replay_record(&rec(5, 4)).is_err());
        assert!(session.replay_record(&rec(3, 4)).is_err());
        assert_eq!(session.stream_stats().batches, 0, "refused, not applied");
        let out = session.replay_record(&rec(4, 4)).unwrap();
        assert_eq!(session.store().epoch(), 4);
        assert_eq!(out.results[0].results.len(), 3);
    }
}
