//! # se-sparql — SPARQL query processing for SuccinctEdge
//!
//! The query layer of the paper (§5): a SPARQL subset parser, the
//! heuristic + statistics join-order optimizer (Algorithm 1), and a
//! left-deep executor that translates triple patterns into the store's SDS
//! operations. Every query runs as a compiled plan ([`ir`]):
//! [`execute_query`] compiles one per call, [`execute_query_cached`] and
//! [`PlanCache`] reuse one across the queries of a shape.
//!
//! Supported SPARQL: `PREFIX`, `SELECT` (with `*`, `DISTINCT`, `LIMIT`),
//! basic graph patterns with `;`/`,` continuations and the `a` keyword,
//! `FILTER`, `BIND (expr AS ?v)`, and top-level `UNION` of groups.
//! Expressions cover comparisons, boolean and arithmetic operators, and the
//! `regex`, `str`, `if`, `bound`, `lang`, `datatype` functions — everything
//! the paper's 26-query workload (Appendix A) and the motivating anomaly
//! query (§2) need.
//!
//! Reasoning (§5.2): with [`exec::QueryOptions`] reasoning enabled, every
//! constant concept/property is replaced by its LiteMat identifier interval
//! — a `[lowerBound, upperBound)` constraint computed with two bit shifts
//! and an addition — instead of being expanded into a UNION of rewritten
//! queries.

pub mod ast;
pub mod error;
pub mod exec;
pub mod expr;
pub mod ir;
pub mod optimizer;
pub mod parser;

pub use ast::{Query, TermPattern, TriplePattern};
pub use error::{QueryError, SparqlParseError};
pub use exec::{QueryOptions, ResultSet};
pub use ir::{CompiledPlan, PlanCache, PlanCacheConfig, PlanCacheStats, PlanTrace};
pub use parser::parse_query;

use se_core::TripleSource;

/// Parses, compiles and executes `query` against any [`TripleSource`]
/// with `options`, caching nothing.
pub fn execute_query<S: TripleSource + ?Sized>(
    store: &S,
    query: &str,
    options: &QueryOptions,
) -> Result<ResultSet, QueryError> {
    let parsed = parse_query(query)?;
    exec::execute(store, &parsed, options)
}

/// [`execute_query`] through a compiled-plan cache: a repeated query
/// text (or a different query of an already-seen *shape*) skips
/// parse/optimize and binds its constants into the cached plan. The
/// embedded-caller entry point; servers and the continuous-query
/// registry hold their own shared [`PlanCache`].
pub fn execute_query_cached<S: TripleSource + ?Sized>(
    store: &S,
    query: &str,
    options: &QueryOptions,
    cache: &PlanCache,
) -> Result<ResultSet, QueryError> {
    cache.execute_text(store, query, options)
}
