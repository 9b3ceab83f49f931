//! The wire protocol: length-prefixed frames over TCP, with binary
//! codecs for RDF terms, graphs and SPARQL result sets built on the
//! [`se_sds`] little-endian primitives.
//!
//! A frame is `[len: u32 LE][kind: u8][payload: len-1 bytes]` — `len`
//! counts the kind byte plus the payload, so an empty-payload frame has
//! `len == 1`. Request kinds occupy `0x01..=0x7F`, response kinds
//! `0x80..=0xFF`; see [`req`] and [`resp`]. The full frame and payload
//! layouts are documented in `docs/server.md`.

use se_rdf::{Graph, Literal, Term, Triple};
use se_sds::{ReadBin, WriteBin};
use se_sparql::{QueryOptions, ResultSet};
use std::io::{self, Read, Write};

/// Upper bound on a frame's declared length: a malformed or hostile
/// length prefix fails fast instead of provoking a giant allocation.
pub const MAX_FRAME: u32 = 64 << 20;

/// Request frame kinds (client → server).
pub mod req {
    /// Payload: inserts [`Graph`] + deletes [`Graph`]. The server may
    /// coalesce the request with other clients' writes into one
    /// group-commit tick; the ack reports the whole tick.
    pub const INGEST: u8 = 0x01;
    /// Payload: query text `str` + [`QueryOptions`](super::QueryOptions)
    /// byte. Executed against the latest published snapshot — never
    /// blocks on the writer.
    pub const QUERY: u8 = 0x02;
    /// Payload: subscription id `str` + query text `str` + options byte.
    /// After every subsequent batch the server pushes this query's
    /// answer set to the subscribing connection.
    pub const SUBSCRIBE: u8 = 0x03;
    /// Empty payload; answered with [`resp::STATS`](super::resp::STATS).
    pub const STATS: u8 = 0x04;
    /// Empty payload; stops the server after acking with
    /// [`resp::OK`](super::resp::OK).
    pub const SHUTDOWN: u8 = 0x05;
    /// Payload: `from_epoch: u64` — the follower's current epoch.
    /// Catch-up: the server replies with either one
    /// [`resp::REPL_RECORD`](super::resp::REPL_RECORD) per batch in
    /// `(from_epoch, leader_epoch]` (when its WAL tail still covers
    /// them) or one [`resp::REPL_SNAPSHOT`](super::resp::REPL_SNAPSHOT)
    /// at the leader's epoch; afterwards the connection receives one
    /// `REPL_RECORD` per group-commit tick, live. The connection becomes
    /// a dedicated replication feed — the client must not send further
    /// requests on it.
    pub const REPLICATE: u8 = 0x06;
}

/// Response frame kinds (server → client).
pub mod resp {
    /// Group-commit ack: one [`IngestAck`](super::IngestAck). Counts are
    /// aggregates over the *whole tick* the request rode in.
    pub const INGEST: u8 = 0x80;
    /// Point-query answer: snapshot epoch `u64` + [`ResultSet`].
    pub const ROWS: u8 = 0x81;
    /// Continuous-query push: subscription id `str`, epoch `u64`, then a
    /// payload-kind byte — [`PUSH_FULL`](super::PUSH_FULL) followed by
    /// one [`ResultSet`] (the whole answer set; a subscription's first
    /// push), or [`PUSH_CHANGES`](super::PUSH_CHANGES) followed by two
    /// `ResultSet`s (rows added, rows removed this tick). Ticks that
    /// leave a query's answers untouched push nothing at all. Arrives
    /// interleaved with request replies; clients must queue it (see
    /// [`Client`](crate::client::Client)).
    pub const PUSH: u8 = 0x82;
    /// Stats: one [`ServerStats`](super::ServerStats), twenty-one `u64`s.
    pub const STATS: u8 = 0x83;
    /// Bare success (subscribe / shutdown ack). Empty payload.
    pub const OK: u8 = 0x84;
    /// Replication bootstrap: epoch `u64` + full [`Graph`]. Sent when
    /// the leader's WAL tail no longer covers the follower's epoch; the
    /// follower rebuilds its store from the graph and aligns to the
    /// carried epoch before consuming further records.
    pub const REPL_SNAPSHOT: u8 = 0x85;
    /// One group-commit tick's WAL record: epoch `u64` + added triples +
    /// removed triples, in the [`se_stream::encode_record_payload`]
    /// layout. Epochs arrive strictly consecutive; a follower seeing a
    /// gap must drop the connection and re-sync.
    pub const REPL_RECORD: u8 = 0x86;
    /// Failure: message `str`. The connection stays usable.
    pub const ERR: u8 = 0xFF;
}

/// [`resp::PUSH`] payload kind: one [`ResultSet`] holding the whole
/// answer set. Sent once per subscription, on its first evaluation.
pub const PUSH_FULL: u8 = 0;
/// [`resp::PUSH`] payload kind: two [`ResultSet`]s — rows added, then
/// rows removed this tick. Sent for every later tick that changed the
/// answer set.
pub const PUSH_CHANGES: u8 = 1;

// ------------------------------------------------------------- framing

/// Writes one frame and flushes the stream.
pub fn write_frame<W: Write>(w: &mut W, kind: u8, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len() + 1)
        .ok()
        .filter(|l| *l <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame payload too large"))?;
    w.write_u32(len)?;
    w.write_u8(kind)?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. `Err(UnexpectedEof)` on a cleanly closed peer.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<(u8, Vec<u8>)> {
    let len = r.read_u32()?;
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside 1..={MAX_FRAME}"),
        ));
    }
    let kind = r.read_u8()?;
    // The declared length is untrusted until the bytes actually arrive:
    // cap the pre-allocation and read through `take`, so a 12-byte
    // hostile prelude cannot commit MAX_FRAME of memory per connection.
    let want = (len - 1) as usize;
    let mut payload = Vec::with_capacity(want.min(1 << 16));
    r.take(want as u64).read_to_end(&mut payload)?;
    if payload.len() != want {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!(
                "frame truncated: declared {want} payload bytes, got {}",
                payload.len()
            ),
        ));
    }
    Ok((kind, payload))
}

// ------------------------------------------------------ reply payloads

/// The ack of one ingest request: aggregate accounting for the whole
/// group-commit tick the request rode in (every coalesced request
/// receives the same numbers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestAck {
    /// Store epoch after the tick.
    pub epoch: u64,
    /// Effective insertions across the tick.
    pub inserted: u64,
    /// Effective deletions across the tick.
    pub deleted: u64,
    /// No-op operations across the tick.
    pub noops: u64,
    /// Ingest requests coalesced into the tick (≥ 1, includes ours).
    pub coalesced: u32,
    /// Whether the tick triggered a compaction.
    pub compacted: bool,
}

/// Server counters, as answered by a `STATS` request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Store epoch (group-commit ticks applied).
    pub epoch: u64,
    /// Triples visible in the live store.
    pub triples: u64,
    /// Snapshots currently pinning store resources.
    pub live_pins: u64,
    /// Snapshots taken over the store's lifetime.
    pub snapshots: u64,
    /// Shard compactions performed.
    pub compactions: u64,
    /// Active continuous-query subscriptions.
    pub subscriptions: u64,
    /// Continuous-query evaluations served by the delta path.
    pub incremental_evals: u64,
    /// Continuous-query full (re-)evaluations: seeding, fallback
    /// queries, and batches without a captured delta.
    pub full_evals: u64,
    /// Net triples added across all captured batch deltas.
    pub delta_added: u64,
    /// Net triples removed across all captured batch deltas.
    pub delta_removed: u64,
    /// Plan-cache executions (QUERY frames and continuous-query full
    /// evaluations) that reused a cached plan with zero SPARQL parsing.
    pub plan_hits: u64,
    /// Plan-cache executions that parsed and/or compiled.
    pub plan_misses: u64,
    /// Fresh plan compilations (excludes re-costs).
    pub plan_compiles: u64,
    /// Plan/text entries dropped by the cache's LRU caps.
    pub plan_evictions: u64,
    /// Stale plans re-ordered after the store epoch advanced past the
    /// staleness threshold.
    pub plan_recosts: u64,
    /// 1 if the WAL refused appends after an earlier failure (the store
    /// serves reads but acks no writes until a checkpoint heals it).
    pub wal_poisoned: u64,
    /// WAL append attempts that failed (including those refused while
    /// poisoned).
    pub wal_appends_failed: u64,
    /// Replication feeds currently attached (leader only).
    pub replicas: u64,
    /// WAL records shipped to replication feeds, catch-up + live.
    pub repl_records_shipped: u64,
    /// Full-snapshot bootstraps served to lagging followers.
    pub repl_snapshots_served: u64,
    /// Feed drops this node recovered from by re-syncing (replica only).
    pub repl_resyncs: u64,
}

/// One direction of a fixed-layout payload codec, handed every field of
/// the payload in wire order: encoding writes the field, decoding
/// overwrites it with the next value read.
pub(crate) trait FieldCodec {
    /// A little-endian `u64` field.
    fn u64(&mut self, v: &mut u64) -> io::Result<()>;
    /// A little-endian `u32` field.
    fn u32(&mut self, v: &mut u32) -> io::Result<()>;
    /// A `bool` field, one byte (0 or 1).
    fn flag(&mut self, v: &mut bool) -> io::Result<()>;
}

struct Encode<'a, W>(&'a mut W);

impl<W: Write> FieldCodec for Encode<'_, W> {
    fn u64(&mut self, v: &mut u64) -> io::Result<()> {
        self.0.write_u64(*v)
    }
    fn u32(&mut self, v: &mut u32) -> io::Result<()> {
        self.0.write_u32(*v)
    }
    fn flag(&mut self, v: &mut bool) -> io::Result<()> {
        self.0.write_u8(*v as u8)
    }
}

struct Decode<'a, R>(&'a mut R);

impl<R: Read> FieldCodec for Decode<'_, R> {
    fn u64(&mut self, v: &mut u64) -> io::Result<()> {
        *v = self.0.read_u64()?;
        Ok(())
    }
    fn u32(&mut self, v: &mut u32) -> io::Result<()> {
        *v = self.0.read_u32()?;
        Ok(())
    }
    fn flag(&mut self, v: &mut bool) -> io::Result<()> {
        *v = self.0.read_u8()? != 0;
        Ok(())
    }
}

/// A reply payload of fixed layout. [`FixedLayout::fields`] lists the
/// fields once, in wire order; writing and reading both run that list.
pub(crate) trait FixedLayout: Copy + Default {
    /// Hands every field to `codec`, in wire order.
    fn fields(&mut self, codec: &mut impl FieldCodec) -> io::Result<()>;

    /// Encodes the payload.
    fn write<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut v = *self;
        v.fields(&mut Encode(w))
    }

    /// Decodes a payload written by [`FixedLayout::write`].
    fn read<R: Read>(r: &mut R) -> io::Result<Self> {
        let mut v = Self::default();
        v.fields(&mut Decode(r))?;
        Ok(v)
    }
}

impl FixedLayout for IngestAck {
    fn fields(&mut self, c: &mut impl FieldCodec) -> io::Result<()> {
        c.u64(&mut self.epoch)?;
        c.u64(&mut self.inserted)?;
        c.u64(&mut self.deleted)?;
        c.u64(&mut self.noops)?;
        c.u32(&mut self.coalesced)?;
        c.flag(&mut self.compacted)
    }
}

impl FixedLayout for ServerStats {
    fn fields(&mut self, c: &mut impl FieldCodec) -> io::Result<()> {
        for v in [
            &mut self.epoch,
            &mut self.triples,
            &mut self.live_pins,
            &mut self.snapshots,
            &mut self.compactions,
            &mut self.subscriptions,
            &mut self.incremental_evals,
            &mut self.full_evals,
            &mut self.delta_added,
            &mut self.delta_removed,
            &mut self.plan_hits,
            &mut self.plan_misses,
            &mut self.plan_compiles,
            &mut self.plan_evictions,
            &mut self.plan_recosts,
            &mut self.wal_poisoned,
            &mut self.wal_appends_failed,
            &mut self.replicas,
            &mut self.repl_records_shipped,
            &mut self.repl_snapshots_served,
            &mut self.repl_resyncs,
        ] {
            c.u64(v)?;
        }
        Ok(())
    }
}

// ------------------------------------------------------------- codecs

const TERM_IRI: u8 = 0;
const TERM_BLANK: u8 = 1;
const TERM_LITERAL: u8 = 2;

const LIT_DATATYPE: u8 = 0b01;
const LIT_LANGUAGE: u8 = 0b10;

/// Encodes a term: tag byte, then the tag-specific fields.
pub fn write_term<W: Write>(w: &mut W, term: &Term) -> io::Result<()> {
    match term {
        Term::Iri(iri) => {
            w.write_u8(TERM_IRI)?;
            w.write_str(iri)
        }
        Term::Blank(label) => {
            w.write_u8(TERM_BLANK)?;
            w.write_str(label)
        }
        Term::Literal(lit) => {
            w.write_u8(TERM_LITERAL)?;
            w.write_str(&lit.value)?;
            let flags = lit.datatype.as_ref().map_or(0, |_| LIT_DATATYPE)
                | lit.language.as_ref().map_or(0, |_| LIT_LANGUAGE);
            w.write_u8(flags)?;
            if let Some(dt) = &lit.datatype {
                w.write_str(dt)?;
            }
            if let Some(lang) = &lit.language {
                w.write_str(lang)?;
            }
            Ok(())
        }
    }
}

/// Decodes a term written by [`write_term`].
pub fn read_term<R: Read>(r: &mut R) -> io::Result<Term> {
    match r.read_u8()? {
        TERM_IRI => Ok(Term::iri(r.read_str()?)),
        TERM_BLANK => Ok(Term::blank(r.read_str()?)),
        TERM_LITERAL => {
            let value = r.read_str()?;
            let flags = r.read_u8()?;
            let datatype = if flags & LIT_DATATYPE != 0 {
                Some(r.read_str()?)
            } else {
                None
            };
            let language = if flags & LIT_LANGUAGE != 0 {
                Some(r.read_str()?)
            } else {
                None
            };
            Ok(Term::Literal(Literal {
                value: value.into(),
                datatype: datatype.map(Into::into),
                language: language.map(Into::into),
            }))
        }
        tag => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown term tag {tag}"),
        )),
    }
}

/// Encodes a graph: triple count, then subject/predicate/object terms.
pub fn write_graph<W: Write>(w: &mut W, graph: &Graph) -> io::Result<()> {
    w.write_u64(graph.len() as u64)?;
    for t in graph.iter() {
        write_term(w, &t.subject)?;
        write_term(w, &t.predicate)?;
        write_term(w, &t.object)?;
    }
    Ok(())
}

/// Decodes a graph written by [`write_graph`]. Malformed triples (a
/// literal subject, say) surface as `InvalidData`, not a panic.
pub fn read_graph<R: Read>(r: &mut R) -> io::Result<Graph> {
    let n = r.read_u64()?;
    if n > MAX_FRAME as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "graph triple count exceeds the frame bound",
        ));
    }
    // The count is untrusted: cap the pre-allocation and let push grow
    // the vec if a (frame-bounded) payload really carries more.
    let mut triples = Vec::with_capacity((n as usize).min(1 << 16));
    for _ in 0..n {
        let subject = read_term(r)?;
        let predicate = read_term(r)?;
        let object = read_term(r)?;
        if !subject.is_resource() || predicate.as_iri().is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "malformed triple: subject must be a resource, predicate an IRI",
            ));
        }
        triples.push(Triple {
            subject,
            predicate,
            object,
        });
    }
    Ok(Graph::from_triples(triples))
}

const OPT_REASONING: u8 = 0b001;
const OPT_OPTIMIZE: u8 = 0b010;
const OPT_MERGE_JOIN: u8 = 0b100;

/// Encodes query options as one flags byte.
pub fn write_options<W: Write>(w: &mut W, o: &QueryOptions) -> io::Result<()> {
    let flags = if o.reasoning { OPT_REASONING } else { 0 }
        | if o.optimize { OPT_OPTIMIZE } else { 0 }
        | if o.merge_join { OPT_MERGE_JOIN } else { 0 };
    w.write_u8(flags)
}

/// Decodes the options byte.
pub fn read_options<R: Read>(r: &mut R) -> io::Result<QueryOptions> {
    let flags = r.read_u8()?;
    Ok(QueryOptions {
        reasoning: flags & OPT_REASONING != 0,
        optimize: flags & OPT_OPTIMIZE != 0,
        merge_join: flags & OPT_MERGE_JOIN != 0,
    })
}

/// Encodes a result set: variables, then rows of optional terms.
pub fn write_result_set<W: Write>(w: &mut W, rs: &ResultSet) -> io::Result<()> {
    w.write_u32(rs.variables.len() as u32)?;
    for v in &rs.variables {
        w.write_str(v)?;
    }
    w.write_u64(rs.rows.len() as u64)?;
    for row in &rs.rows {
        for cell in row {
            match cell {
                Some(term) => {
                    w.write_u8(1)?;
                    write_term(w, term)?;
                }
                None => w.write_u8(0)?,
            }
        }
    }
    Ok(())
}

/// Decodes a result set written by [`write_result_set`].
pub fn read_result_set<R: Read>(r: &mut R) -> io::Result<ResultSet> {
    let nvars = r.read_u32()? as usize;
    let mut variables = Vec::with_capacity(nvars.min(1024));
    for _ in 0..nvars {
        variables.push(r.read_str()?);
    }
    let nrows = r.read_u64()?;
    let mut rows = Vec::new();
    for _ in 0..nrows {
        let mut row = Vec::with_capacity(nvars.min(1024));
        for _ in 0..nvars {
            row.push(match r.read_u8()? {
                0 => None,
                _ => Some(read_term(r)?),
            });
        }
        rows.push(row);
    }
    Ok(ResultSet { variables, rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_codec_round_trips_every_variant() {
        let terms = [
            Term::iri("http://x/a"),
            Term::blank("b0"),
            Term::literal("plain"),
            Term::Literal(Literal::typed(
                "3",
                "http://www.w3.org/2001/XMLSchema#integer",
            )),
            Term::Literal(Literal::lang("bonjour", "fr")),
        ];
        for term in &terms {
            let mut buf = Vec::new();
            write_term(&mut buf, term).unwrap();
            let back = read_term(&mut buf.as_slice()).unwrap();
            assert_eq!(&back, term);
        }
    }

    #[test]
    fn graph_codec_rejects_malformed_triples() {
        let mut buf = Vec::new();
        buf.write_u64(1).unwrap();
        write_term(&mut buf, &Term::literal("bad-subject")).unwrap();
        write_term(&mut buf, &Term::iri("http://x/p")).unwrap();
        write_term(&mut buf, &Term::iri("http://x/o")).unwrap();
        assert!(read_graph(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn result_set_codec_round_trips_unbound_cells() {
        let rs = ResultSet {
            variables: vec!["s".into(), "o".into()],
            rows: vec![
                vec![Some(Term::iri("http://x/a")), None],
                vec![None, Some(Term::literal("42"))],
            ],
        };
        let mut buf = Vec::new();
        write_result_set(&mut buf, &rs).unwrap();
        let back = read_result_set(&mut buf.as_slice()).unwrap();
        assert_eq!(back.variables, rs.variables);
        assert_eq!(format!("{:?}", back.rows), format!("{:?}", rs.rows));
    }

    /// A hostile declared length (string or triple count) far beyond the
    /// actual payload must come back as a clean error — not an up-front
    /// allocation of that size aborting the process (the server parses
    /// every payload with these codecs).
    #[test]
    fn hostile_declared_lengths_error_instead_of_allocating() {
        // An IRI term whose string claims ~8 EB of content.
        let mut buf = vec![TERM_IRI];
        buf.write_u64(u64::MAX / 2).unwrap();
        buf.extend_from_slice(b"short");
        assert!(read_term(&mut buf.as_slice()).is_err());

        // A graph claiming the maximum in-bound triple count with a
        // near-empty body: the capacity cap keeps the pre-allocation
        // small and the first missing term ends the parse cleanly.
        let mut buf = Vec::new();
        buf.write_u64(MAX_FRAME as u64).unwrap();
        assert!(read_graph(&mut buf.as_slice()).is_err());

        // A result set claiming u32::MAX variables backed by nothing.
        let mut buf = Vec::new();
        buf.write_u32(u32::MAX).unwrap();
        assert!(read_result_set(&mut buf.as_slice()).is_err());
    }

    /// A frame whose length prefix declares (just under) MAX_FRAME but
    /// whose body is a handful of bytes must error out without first
    /// committing the declared size: 12 hostile bytes used to cost the
    /// server a 64 MiB zeroed allocation per connection.
    #[test]
    fn hostile_frame_length_errors_without_allocating() {
        let mut buf = Vec::new();
        buf.write_u32(MAX_FRAME).unwrap();
        buf.write_u8(req::QUERY).unwrap();
        buf.extend_from_slice(b"tiny");
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            err.to_string().contains("truncated"),
            "want the truncation diagnostic, got: {err}"
        );
    }

    /// Pins the STATS payload: the k-th counter in `docs/server.md`
    /// order is written k-th. A field pair swapped in the codec fails
    /// here even though encoding and decoding would still agree.
    #[test]
    fn server_stats_layout_is_pinned() {
        let stats = ServerStats {
            epoch: 1,
            triples: 2,
            live_pins: 3,
            snapshots: 4,
            compactions: 5,
            subscriptions: 6,
            incremental_evals: 7,
            full_evals: 8,
            delta_added: 9,
            delta_removed: 10,
            plan_hits: 11,
            plan_misses: 12,
            plan_compiles: 13,
            plan_evictions: 14,
            plan_recosts: 15,
            wal_poisoned: 16,
            wal_appends_failed: 17,
            replicas: 18,
            repl_records_shipped: 19,
            repl_snapshots_served: 20,
            repl_resyncs: 21,
        };
        let mut buf = Vec::new();
        stats.write(&mut buf).unwrap();
        let want: Vec<u8> = (1..=21u64).flat_map(u64::to_le_bytes).collect();
        assert_eq!(buf, want, "twenty-one u64s, in documented order");
        assert_eq!(ServerStats::read(&mut buf.as_slice()).unwrap(), stats);
        buf.pop();
        assert!(ServerStats::read(&mut buf.as_slice()).is_err());
    }

    /// Pins the INGEST ack payload: four `u64`s, a `u32`, a `u8`.
    #[test]
    fn ingest_ack_layout_is_pinned() {
        let ack = IngestAck {
            epoch: 1,
            inserted: 2,
            deleted: 3,
            noops: 4,
            coalesced: 5,
            compacted: true,
        };
        let mut buf = Vec::new();
        ack.write(&mut buf).unwrap();
        let mut want: Vec<u8> = (1..=4u64).flat_map(u64::to_le_bytes).collect();
        want.extend_from_slice(&5u32.to_le_bytes());
        want.push(1);
        assert_eq!(buf, want);
        assert_eq!(IngestAck::read(&mut buf.as_slice()).unwrap(), ack);
        buf.pop();
        assert!(IngestAck::read(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn frame_round_trip_and_length_guard() {
        let mut buf = Vec::new();
        write_frame(&mut buf, req::QUERY, b"payload").unwrap();
        let (kind, payload) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(kind, req::QUERY);
        assert_eq!(payload, b"payload");

        let mut bad = Vec::new();
        bad.write_u32(MAX_FRAME + 1).unwrap();
        bad.write_u8(req::QUERY).unwrap();
        assert!(read_frame(&mut bad.as_slice()).is_err());
    }
}
