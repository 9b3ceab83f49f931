//! Query-layer errors.

use std::fmt;

/// A SPARQL syntax error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparqlParseError {
    /// Byte offset into the query text.
    pub position: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for SparqlParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SPARQL parse error at offset {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for SparqlParseError {}

/// Any error raised while answering a query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The query text is not valid (supported) SPARQL.
    Parse(SparqlParseError),
    /// A feature outside SuccinctEdge's target fragment, e.g. a variable in
    /// predicate position combined with `rdf:type` reasoning.
    Unsupported(String),
    /// An expression failed in a BIND (FILTER errors silently drop the row,
    /// as SPARQL prescribes).
    Expression(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "{e}"),
            QueryError::Unsupported(m) => write!(f, "unsupported query feature: {m}"),
            QueryError::Expression(m) => write!(f, "expression error: {m}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl QueryError {
    /// The refusal of a variable in predicate position: no plan step can
    /// match one (§5.1 fixes every predicate of the target fragment).
    pub fn variable_predicate() -> Self {
        QueryError::Unsupported(
            "variable predicates are outside SuccinctEdge's target fragment (§5.1)".to_string(),
        )
    }
}

impl From<SparqlParseError> for QueryError {
    fn from(e: SparqlParseError) -> Self {
        QueryError::Parse(e)
    }
}
