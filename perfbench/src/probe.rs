//! A timing [`TripleSource`] adapter: every call into the wrapped store
//! is counted and timed from outside, grouped by the access the paper's
//! executor makes (Algorithms 2–4 and the LiteMat interval variants).

use se_core::{TripleSource, Value};
use se_litemat::IdInterval;
use se_rdf::{Literal, Term};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Kinds of store access, as the per-layer metrics group them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `(?s, p, o)` and its literal / interval variants.
    Subjects,
    /// `(s, p, ?o)` and its interval variant.
    Objects,
    /// `(?s, p, ?o)` predicate scans.
    Scan,
    /// `rdf:type` patterns and membership checks.
    Type,
    /// `(s, p, o)` membership and join-aware value equality.
    Contains,
    /// Cardinality statistics the optimizer reads.
    Stats,
    /// Id → term decoding and term → id lookups (LiteMat dictionaries).
    Decode,
}

const KINDS: usize = 7;

/// Totals for one [`Kind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub calls: u64,
    pub ns: u64,
    /// Answers returned: vector lengths, or one per boolean probe.
    pub answers: u64,
}

/// Counters of every [`Kind`]; `Sync`, as `TripleSource` requires.
#[derive(Debug, Default)]
pub struct Counters {
    calls: [AtomicU64; KINDS],
    ns: [AtomicU64; KINDS],
    answers: [AtomicU64; KINDS],
}

impl Counters {
    pub fn get(&self, kind: Kind) -> Tally {
        let i = kind as usize;
        Tally {
            calls: self.calls[i].load(Ordering::Relaxed),
            ns: self.ns[i].load(Ordering::Relaxed),
            answers: self.answers[i].load(Ordering::Relaxed),
        }
    }

    /// Sum over the probe kinds (every kind but [`Kind::Decode`]).
    pub fn probes(&self) -> Tally {
        [
            Kind::Subjects,
            Kind::Objects,
            Kind::Scan,
            Kind::Type,
            Kind::Contains,
            Kind::Stats,
        ]
        .iter()
        .fold(Tally::default(), |acc, &k| {
            let t = self.get(k);
            Tally {
                calls: acc.calls + t.calls,
                ns: acc.ns + t.ns,
                answers: acc.answers + t.answers,
            }
        })
    }

    fn add(&self, kind: Kind, start: Instant, answers: usize) {
        let i = kind as usize;
        let ns = start.elapsed().as_nanos() as u64;
        self.calls[i].fetch_add(1, Ordering::Relaxed);
        self.ns[i].fetch_add(ns, Ordering::Relaxed);
        self.answers[i].fetch_add(answers as u64, Ordering::Relaxed);
    }
}

/// Wraps a store; every trait call is forwarded and recorded.
pub struct Timed<'a, S: ?Sized> {
    inner: &'a S,
    pub counters: Counters,
}

impl<'a, S: TripleSource + ?Sized> Timed<'a, S> {
    pub fn new(inner: &'a S) -> Self {
        Self {
            inner,
            counters: Counters::default(),
        }
    }

    fn vec<T>(&self, kind: Kind, f: impl FnOnce(&S) -> Vec<T>) -> Vec<T> {
        let t = Instant::now();
        let out = f(self.inner);
        self.counters.add(kind, t, out.len());
        out
    }

    fn one<T>(&self, kind: Kind, f: impl FnOnce(&S) -> T) -> T {
        let t = Instant::now();
        let out = f(self.inner);
        self.counters.add(kind, t, 1);
        out
    }
}

impl<S: TripleSource + ?Sized> TripleSource for Timed<'_, S> {
    fn instance_id(&self, term: &Term) -> Option<u64> {
        self.one(Kind::Decode, |s| s.instance_id(term))
    }
    fn property_id(&self, iri: &str) -> Option<u64> {
        self.one(Kind::Decode, |s| s.property_id(iri))
    }
    fn concept_id(&self, iri: &str) -> Option<u64> {
        self.one(Kind::Decode, |s| s.concept_id(iri))
    }
    fn property_interval(&self, iri: &str) -> Option<IdInterval> {
        self.one(Kind::Decode, |s| s.property_interval(iri))
    }
    fn concept_interval(&self, iri: &str) -> Option<IdInterval> {
        self.one(Kind::Decode, |s| s.concept_interval(iri))
    }
    fn value_to_term(&self, value: Value) -> Option<Term> {
        self.one(Kind::Decode, |s| s.value_to_term(value))
    }
    fn literal(&self, idx: u64) -> Option<&Literal> {
        let t = Instant::now();
        let out = self.inner.literal(idx);
        self.counters.add(Kind::Decode, t, 1);
        out
    }
    fn values_join(&self, a: Value, b: Value) -> bool {
        self.one(Kind::Contains, |s| s.values_join(a, b))
    }
    fn objects(&self, p: u64, s: u64) -> Vec<Value> {
        self.vec(Kind::Objects, |st| st.objects(p, s))
    }
    fn subjects(&self, p: u64, o: &Value) -> Vec<u64> {
        self.vec(Kind::Subjects, |s| s.subjects(p, o))
    }
    fn subjects_by_literal(&self, p: u64, lit: &Literal) -> Vec<u64> {
        self.vec(Kind::Subjects, |s| s.subjects_by_literal(p, lit))
    }
    fn scan_predicate(&self, p: u64) -> Vec<(u64, Value)> {
        self.vec(Kind::Scan, |s| s.scan_predicate(p))
    }
    fn contains(&self, p: u64, s: u64, o: &Value) -> bool {
        self.one(Kind::Contains, |st| st.contains(p, s, o))
    }
    fn objects_interval(&self, p_iv: IdInterval, s: u64) -> Vec<Value> {
        self.vec(Kind::Objects, |st| st.objects_interval(p_iv, s))
    }
    fn subjects_interval(&self, p_iv: IdInterval, o: &Value) -> Vec<u64> {
        self.vec(Kind::Subjects, |s| s.subjects_interval(p_iv, o))
    }
    fn subjects_by_literal_interval(&self, p_iv: IdInterval, lit: &Literal) -> Vec<u64> {
        self.vec(Kind::Subjects, |s| {
            s.subjects_by_literal_interval(p_iv, lit)
        })
    }
    fn scan_interval(&self, p_iv: IdInterval) -> Vec<(u64, Value)> {
        self.vec(Kind::Scan, |s| s.scan_interval(p_iv))
    }
    fn subjects_of_concept(&self, c: u64) -> Vec<u64> {
        self.vec(Kind::Type, |s| s.subjects_of_concept(c))
    }
    fn subjects_of_concept_interval(&self, iv: IdInterval) -> Vec<u64> {
        self.vec(Kind::Type, |s| s.subjects_of_concept_interval(iv))
    }
    fn concepts_of_subject(&self, s: u64) -> Vec<u64> {
        self.vec(Kind::Type, |st| st.concepts_of_subject(s))
    }
    fn has_type(&self, s: u64, c: u64) -> bool {
        self.one(Kind::Type, |st| st.has_type(s, c))
    }
    fn has_type_in_interval(&self, s: u64, iv: IdInterval) -> bool {
        self.one(Kind::Type, |st| st.has_type_in_interval(s, iv))
    }
    fn type_pairs(&self) -> Vec<(u64, u64)> {
        self.vec(Kind::Type, |s| s.type_pairs())
    }
    fn len(&self) -> usize {
        self.one(Kind::Stats, |s| s.len())
    }
    fn predicate_count(&self, p: u64) -> usize {
        self.one(Kind::Stats, |s| s.predicate_count(p))
    }
    fn predicate_interval_count(&self, iv: IdInterval) -> usize {
        self.one(Kind::Stats, |s| s.predicate_interval_count(iv))
    }
    fn type_count(&self, iv: IdInterval) -> usize {
        self.one(Kind::Stats, |s| s.type_count(iv))
    }
    fn type_total(&self) -> usize {
        self.one(Kind::Stats, |s| s.type_total())
    }
}
