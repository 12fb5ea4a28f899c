//! # bionav-proto — the BioNav wire protocol
//!
//! A dependency-free, socket-free protocol layer for the sharded serving
//! tier (ISSUE 7). Frames are **4-byte big-endian length prefix + JSON
//! payload**; the payload is an externally-tagged [`Request`] or [`Reply`].
//!
//! The crate is written *sans-IO*: nothing here touches a socket. A server
//! owns a [`Conn`] per connection and drives it byte-by-byte —
//! [`Conn::feed_bytes`] turns whatever chunk the transport produced into a
//! list of [`Event`]s, and [`Conn::enqueue_reply`] turns replies back into
//! outbound bytes ([`Conn::take_outbound`]). Because the state machine is
//! pure over byte slices, every framing edge case (split prefix, merged
//! frames, garbage payload, oversized frame) is unit-testable without
//! threads or sockets, and the property tests assert that *any* chunking
//! of a byte stream decodes to the same event sequence.
//!
//! Error taxonomy, chosen so a server never dies on a bad client:
//!
//! * **Truncated frame** (prefix or payload not yet complete) — not an
//!   error; the bytes wait in the buffer for the next feed.
//! * **Malformed payload** (intact framing, JSON that is not a valid
//!   [`Request`]) — recoverable: surfaced as [`Event::Malformed`] so the
//!   server can answer [`Reply::Error`] and keep the connection.
//! * **Oversized frame** (declared length > [`MAX_FRAME`]) — fatal: the
//!   length prefix cannot be trusted, so resynchronization is impossible.
//!   [`Conn::feed_bytes`] returns [`ProtoError::FrameTooLarge`] and the
//!   connection latches dead ([`ProtoError::ConnectionDead`] thereafter).

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

/// Maximum payload size in bytes (1 MiB). A declared frame length above
/// this is treated as a protocol violation, not a large message: the
/// connection is unrecoverable because the prefix cannot be trusted.
pub const MAX_FRAME: usize = 1 << 20;

/// Size of the big-endian length prefix.
pub const PREFIX_LEN: usize = 4;

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// Request-context fields a client may attach to any request by wrapping
/// it in an [`Envelope`]. All fields use `0` as the "absent" sentinel —
/// the vendored serde has no `Option`-friendly field attributes, and a
/// zero request id / session / deadline is never minted by a front end.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireCtx {
    /// Client-chosen request id (0 = let the server mint one). Propagated
    /// into every span, flight-recorder entry, and degradation decision
    /// the request produces server-side.
    pub request_id: u64,
    /// Packed shard session id the request concerns (0 = none).
    pub session: u64,
    /// Absolute deadline in server trace-epoch nanoseconds (0 = none).
    /// When set, the engine's degradation ladder treats an elapsed
    /// deadline exactly like an exhausted per-expand budget.
    pub deadline_ns: u64,
}

/// The optional request envelope: a [`WireCtx`] plus the wrapped
/// [`Request`]. On the wire this is `{"ctx":{...},"req":{...}}` — a JSON
/// shape disjoint from every externally-tagged bare [`Request`], so the
/// decoder accepts both and old clients keep working unchanged (wire
/// compatibility is covered by `envelope_and_bare_frames_both_parse`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Envelope {
    /// The request context.
    pub ctx: WireCtx,
    /// The wrapped request.
    pub req: Request,
}

/// A client request. Session ids are the raw `ShardSessionId::to_bits`
/// packing (`shard << 48 | local`), so the protocol layer stays free of any
/// `bionav-core` dependency while the server routes without a lookup table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Request {
    /// Open a navigation session for a keyword query.
    Open {
        /// The keyword query text (normalized server-side for routing).
        query: String,
    },
    /// EXPAND a visible node in an open session.
    Expand {
        /// Packed shard session id from [`Reply::Opened`].
        session: u64,
        /// Navigation-tree node id to expand.
        node: u32,
    },
    /// SHOWRESULTS: fetch the citations attached under a visible node.
    ShowResults {
        /// Packed shard session id.
        session: u64,
        /// Navigation-tree node id to show.
        node: u32,
    },
    /// Close a session and release its slot.
    Close {
        /// Packed shard session id.
        session: u64,
    },
    /// Fetch merged cross-shard serving statistics (JSON).
    Stats,
    /// Fetch the Prometheus exposition text (per-shard labeled).
    Prom,
    /// Dump the black-box flight recorder: the last N completed request
    /// summaries (id, verb, shard, stage breakdown, cache/degrade/error
    /// outcome) as a JSON document.
    Debug,
}

/// One visible node of a navigation reply, flattened for the wire.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireNode {
    /// Navigation-tree node id (valid in `Expand`/`ShowResults` calls).
    pub node: u32,
    /// Concept label.
    pub label: String,
    /// Distinct citations in the node's component subtree.
    pub count: u64,
}

/// A server reply. Every [`Request`] gets exactly one reply, in order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Reply {
    /// Session opened; `session` packs `(shard, local)` id bits.
    Opened {
        /// Packed shard session id — echo it in subsequent calls.
        session: u64,
        /// Initial visible component roots.
        roots: Vec<WireNode>,
    },
    /// EXPAND succeeded; the node's component was split by its EdgeCut.
    Expanded {
        /// Nodes revealed by the expansion.
        revealed: Vec<WireNode>,
        /// Whether the engine degraded to a cheaper cut (shed/myopic).
        degraded: bool,
    },
    /// SHOWRESULTS succeeded.
    Results {
        /// Citation ids attached under the requested node.
        citations: Vec<u64>,
    },
    /// Session closed.
    Closed,
    /// Merged serving statistics, pre-serialized as a JSON document.
    Stats {
        /// `ServeStats` JSON (kept opaque so proto stays core-free).
        json: String,
    },
    /// Prometheus exposition text with per-shard labels.
    Prom {
        /// The exposition body.
        text: String,
    },
    /// Flight-recorder dump for [`Request::Debug`].
    Flight {
        /// The recorder contents as a JSON array of request summaries
        /// (kept opaque so proto stays core-free).
        json: String,
    },
    /// The request could not be served (bad session, bad node, malformed
    /// payload, overload). The connection stays open.
    Error {
        /// Human-readable cause.
        message: String,
    },
    /// The request was refused by the overload-control plane (an open
    /// shard circuit breaker) and is worth retrying — unlike
    /// [`Reply::Error`], this carries a server-computed backoff hint.
    /// The connection stays open.
    Throttled {
        /// Human-readable cause.
        message: String,
        /// Suggested minimum backoff before retrying, in milliseconds
        /// (always ≥ 1 — a zero hint would invite a tight retry loop).
        retry_after_ms: u64,
    },
}

// ---------------------------------------------------------------------------
// Errors & events
// ---------------------------------------------------------------------------

/// Fatal protocol errors: after one of these the connection is dead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// A length prefix declared a payload larger than [`MAX_FRAME`].
    FrameTooLarge {
        /// The declared payload length.
        declared: usize,
    },
    /// The connection already latched dead; no further bytes are accepted.
    ConnectionDead,
    /// A reply frame failed to decode (client side only, where the peer is
    /// the trusted server and a bad frame means a torn stream).
    BadReply(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::FrameTooLarge { declared } => {
                write!(f, "frame length {declared} exceeds MAX_FRAME {MAX_FRAME}")
            }
            ProtoError::ConnectionDead => write!(f, "connection latched dead"),
            ProtoError::BadReply(msg) => write!(f, "bad reply frame: {msg}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// One decoded inbound item on the server side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A well-formed request, with its [`WireCtx`] when the client sent
    /// an [`Envelope`] (`None` for bare legacy frames).
    Request(Request, Option<WireCtx>),
    /// An intact frame whose payload was not a valid [`Request`]. The
    /// framing layer resynchronized past it; answer with [`Reply::Error`].
    Malformed(String),
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Incremental frame splitter shared by server and client directions.
/// Accumulates bytes; yields complete payloads; latches dead on an
/// untrusted length prefix.
#[derive(Debug, Default)]
struct Framer {
    buf: Vec<u8>,
    dead: bool,
}

impl Framer {
    /// Feeds a chunk and returns every complete payload it finishes.
    /// Partial frames stay buffered. On an oversized declared length the
    /// framer latches dead and the error is returned immediately (payloads
    /// completed *earlier in this same chunk* are returned alongside via
    /// the `out` parameter, which the caller has already collected).
    fn push(&mut self, bytes: &[u8], out: &mut Vec<Vec<u8>>) -> Result<(), ProtoError> {
        if self.dead {
            return Err(ProtoError::ConnectionDead);
        }
        self.buf.extend_from_slice(bytes);
        let mut pos = 0usize;
        let res = loop {
            let rest = &self.buf[pos..];
            if rest.len() < PREFIX_LEN {
                break Ok(());
            }
            let declared = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
            if declared > MAX_FRAME {
                self.dead = true;
                break Err(ProtoError::FrameTooLarge { declared });
            }
            if rest.len() < PREFIX_LEN + declared {
                break Ok(());
            }
            out.push(rest[PREFIX_LEN..PREFIX_LEN + declared].to_vec());
            pos += PREFIX_LEN + declared;
        };
        self.buf.drain(..pos);
        res
    }
}

/// Frames a payload: 4-byte big-endian length + the payload bytes.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(PREFIX_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

fn to_json<T: Serialize>(msg: &T) -> String {
    #[expect(
        clippy::expect_used,
        reason = "serializing our own derived message types cannot fail (no non-string map keys, no non-finite floats on the encode path's own structure)"
    )]
    serde_json::to_string(msg).expect("proto message serialization is infallible")
}

/// Encodes a request as one complete wire frame (client side).
pub fn encode_request(req: &Request) -> Vec<u8> {
    frame(to_json(req).as_bytes())
}

/// Encodes a request wrapped in a [`WireCtx`] envelope as one wire frame.
/// Servers predating the envelope reject the frame as malformed (a typed
/// [`Reply::Error`], never a dead connection), so clients can probe.
pub fn encode_request_ctx(ctx: WireCtx, req: &Request) -> Vec<u8> {
    frame(
        to_json(&Envelope {
            ctx,
            req: req.clone(),
        })
        .as_bytes(),
    )
}

/// Encodes a reply as one complete wire frame (server side).
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    frame(to_json(reply).as_bytes())
}

// ---------------------------------------------------------------------------
// Server-side connection state machine
// ---------------------------------------------------------------------------

/// Server-side half of one connection: inbound request decoding plus an
/// outbound reply byte queue. Pure over byte slices — no sockets.
#[derive(Debug, Default)]
pub struct Conn {
    framer: Framer,
    out: Vec<u8>,
}

impl Conn {
    /// Creates an empty connection state machine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds transport bytes; returns the events they complete, in order.
    ///
    /// Recoverable problems (a frame that is not a valid [`Request`])
    /// surface as [`Event::Malformed`] *in the event stream*, preserving
    /// ordering with surrounding requests. Fatal problems (oversized
    /// frame) return `Err`: frames completed earlier in the same chunk are
    /// dropped with the connection — the length prefix can no longer be
    /// trusted, so partial progress is worthless — and every later call
    /// returns [`ProtoError::ConnectionDead`].
    pub fn feed_bytes(&mut self, bytes: &[u8]) -> Result<Vec<Event>, ProtoError> {
        let mut payloads = Vec::new();
        let fatal = self.framer.push(bytes, &mut payloads).err();
        let mut events = Vec::with_capacity(payloads.len());
        for payload in payloads {
            events.push(match decode_request(&payload) {
                Ok((req, ctx)) => Event::Request(req, ctx),
                Err(msg) => Event::Malformed(msg),
            });
        }
        match fatal {
            // Frames completed before the poisoned prefix in this same
            // chunk are lost with the connection — the caller is about to
            // drop it anyway, and a dead framer cannot be half-trusted.
            Some(err) => Err(err),
            None => Ok(events),
        }
    }

    /// Whether a fatal framing error has latched the connection dead.
    pub fn is_dead(&self) -> bool {
        self.framer.dead
    }

    /// Queues one reply on the outbound byte buffer.
    pub fn enqueue_reply(&mut self, reply: &Reply) {
        self.out.extend_from_slice(&encode_reply(reply));
    }

    /// Takes every queued outbound byte (the transport writes these).
    pub fn take_outbound(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out)
    }

    /// Bytes currently queued for the transport without consuming them.
    pub fn outbound_len(&self) -> usize {
        self.out.len()
    }
}

fn decode_request(payload: &[u8]) -> Result<(Request, Option<WireCtx>), String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("non-UTF-8 payload: {e}"))?;
    // The two accepted shapes are disjoint: a bare request is externally
    // tagged (`{"Open":{...}}` / `"Stats"`), an envelope is the struct
    // `{"ctx":{...},"req":{...}}`. Try the bare shape first (the common
    // and legacy case), then the envelope.
    if let Ok(req) = serde_json::from_str::<Request>(text) {
        return Ok((req, None));
    }
    match serde_json::from_str::<Envelope>(text) {
        Ok(env) => Ok((env.req, Some(env.ctx))),
        Err(e) => Err(format!("invalid request: {e}")),
    }
}

// ---------------------------------------------------------------------------
// Client-side reply reader
// ---------------------------------------------------------------------------

/// Client-side half: decodes the server's reply stream. The server is the
/// trusted end, so *any* undecodable frame is fatal here.
#[derive(Debug, Default)]
pub struct ReplyReader {
    framer: Framer,
}

impl ReplyReader {
    /// Creates an empty reply reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds transport bytes; returns the replies they complete, in order.
    pub fn feed_bytes(&mut self, bytes: &[u8]) -> Result<Vec<Reply>, ProtoError> {
        let mut payloads = Vec::new();
        self.framer.push(bytes, &mut payloads)?;
        let mut replies = Vec::with_capacity(payloads.len());
        for payload in payloads {
            let text = std::str::from_utf8(&payload)
                .map_err(|e| ProtoError::BadReply(format!("non-UTF-8 payload: {e}")))?;
            replies.push(
                serde_json::from_str::<Reply>(text)
                    .map_err(|e| ProtoError::BadReply(format!("invalid reply: {e}")))?,
            );
        }
        Ok(replies)
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn open(q: &str) -> Request {
        Request::Open {
            query: q.to_string(),
        }
    }

    #[test]
    fn request_roundtrips_through_json() {
        let all = vec![
            open("prothymosin"),
            Request::Expand {
                session: (3u64 << 48) | 7,
                node: 42,
            },
            Request::ShowResults {
                session: 9,
                node: 0,
            },
            Request::Close {
                session: u64::MAX >> 8,
            },
            Request::Stats,
            Request::Prom,
            Request::Debug,
        ];
        for req in all {
            let bytes = encode_request(&req);
            let mut conn = Conn::new();
            let events = conn.feed_bytes(&bytes).expect("well-formed frame");
            assert_eq!(events, vec![Event::Request(req, None)]);
        }
    }

    /// Wire compatibility: a bare legacy frame and an enveloped frame both
    /// decode, and the envelope's context comes through intact.
    #[test]
    fn envelope_and_bare_frames_both_parse() {
        let req = Request::Expand {
            session: (2u64 << 48) | 9,
            node: 4,
        };
        let ctx = WireCtx {
            request_id: 0xDEAD_BEEF,
            session: (2u64 << 48) | 9,
            deadline_ns: 123_456_789,
        };
        let mut conn = Conn::new();
        let mut stream = encode_request(&req);
        stream.extend_from_slice(&encode_request_ctx(ctx, &req));
        let events = conn.feed_bytes(&stream).expect("both shapes are legal");
        assert_eq!(
            events,
            vec![
                Event::Request(req.clone(), None),
                Event::Request(req, Some(ctx)),
            ]
        );
        // The envelope shape on the wire is the documented struct JSON.
        let enveloped = encode_request_ctx(ctx, &Request::Stats);
        let text = std::str::from_utf8(&enveloped[PREFIX_LEN..]).expect("utf-8");
        assert!(text.starts_with("{\"ctx\":"), "envelope JSON: {text}");
        assert!(text.contains("\"request_id\":3735928559"));
    }

    #[test]
    fn reply_roundtrips_through_json() {
        let all = vec![
            Reply::Opened {
                session: (5u64 << 48) | 1,
                roots: vec![WireNode {
                    node: 1,
                    label: "Amino Acids".into(),
                    count: 313,
                }],
            },
            Reply::Expanded {
                revealed: vec![WireNode {
                    node: 8,
                    label: "Thymosin".into(),
                    count: 12,
                }],
                degraded: true,
            },
            Reply::Results {
                citations: vec![10, 20, 30],
            },
            Reply::Closed,
            Reply::Stats {
                json: "{\"expand_calls\":4}".into(),
            },
            Reply::Prom {
                text: "# TYPE x counter\nx 1\n".into(),
            },
            Reply::Flight {
                json: "[{\"request_id\":7}]".into(),
            },
            Reply::Error {
                message: "unknown session 7:9".into(),
            },
            Reply::Throttled {
                message: "shard 3 circuit breaker is open".into(),
                retry_after_ms: 125,
            },
        ];
        for reply in all {
            let bytes = encode_reply(&reply);
            let mut rd = ReplyReader::new();
            let got = rd.feed_bytes(&bytes).expect("well-formed frame");
            assert_eq!(got, vec![reply]);
        }
    }

    #[test]
    fn truncated_prefix_waits_byte_by_byte() {
        let bytes = encode_request(&open("ice nucleation"));
        let mut conn = Conn::new();
        // Every byte except the last completes nothing.
        for &b in &bytes[..bytes.len() - 1] {
            assert_eq!(conn.feed_bytes(&[b]).expect("no fatal error"), vec![]);
        }
        let events = conn
            .feed_bytes(&bytes[bytes.len() - 1..])
            .expect("final byte");
        assert_eq!(events, vec![Event::Request(open("ice nucleation"), None)]);
    }

    #[test]
    fn merged_frames_decode_in_order() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode_request(&open("a")));
        stream.extend_from_slice(&encode_request(&Request::Stats));
        stream.extend_from_slice(&encode_request(&Request::Close { session: 2 }));
        let mut conn = Conn::new();
        let events = conn.feed_bytes(&stream).expect("three clean frames");
        assert_eq!(
            events,
            vec![
                Event::Request(open("a"), None),
                Event::Request(Request::Stats, None),
                Event::Request(Request::Close { session: 2 }, None),
            ]
        );
    }

    #[test]
    fn garbage_payload_is_recoverable_malformed() {
        let mut stream = frame(b"{\"definitely\": \"not a request\"}");
        stream.extend_from_slice(&frame(b"\xff\xfe not even utf8"));
        stream.extend_from_slice(&encode_request(&Request::Prom));
        let mut conn = Conn::new();
        let events = conn
            .feed_bytes(&stream)
            .expect("framing is intact throughout");
        assert_eq!(events.len(), 3);
        assert!(matches!(events[0], Event::Malformed(_)));
        assert!(matches!(events[1], Event::Malformed(ref m) if m.contains("non-UTF-8")));
        assert_eq!(events[2], Event::Request(Request::Prom, None));
        assert!(
            !conn.is_dead(),
            "malformed payloads must not kill the connection"
        );
    }

    #[test]
    fn oversized_frame_is_fatal_and_latches() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&((MAX_FRAME + 1) as u32).to_be_bytes());
        let mut conn = Conn::new();
        let err = conn.feed_bytes(&stream).expect_err("oversized prefix");
        assert_eq!(
            err,
            ProtoError::FrameTooLarge {
                declared: MAX_FRAME + 1
            }
        );
        assert!(conn.is_dead());
        // Even a perfectly valid frame is refused after the latch.
        let err = conn
            .feed_bytes(&encode_request(&Request::Stats))
            .expect_err("dead connection");
        assert_eq!(err, ProtoError::ConnectionDead);
    }

    #[test]
    fn max_frame_boundary_is_accepted() {
        // A frame of exactly MAX_FRAME bytes must pass the length check
        // (it will be Malformed — the payload is junk — but not fatal).
        let payload = vec![b' '; MAX_FRAME];
        let mut conn = Conn::new();
        let events = conn
            .feed_bytes(&frame(&payload))
            .expect("boundary frame is legal");
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], Event::Malformed(_)));
    }

    #[test]
    fn replies_queue_and_drain() {
        let mut conn = Conn::new();
        conn.enqueue_reply(&Reply::Closed);
        conn.enqueue_reply(&Reply::Error {
            message: "x".into(),
        });
        assert!(conn.outbound_len() > 0);
        let bytes = conn.take_outbound();
        assert_eq!(conn.outbound_len(), 0);
        let mut rd = ReplyReader::new();
        let replies = rd.feed_bytes(&bytes).expect("server-encoded frames");
        assert_eq!(
            replies,
            vec![
                Reply::Closed,
                Reply::Error {
                    message: "x".into()
                }
            ]
        );
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_request() -> impl Strategy<Value = Request> {
        // The vendored proptest has no `prop_oneof!`; pick a variant by
        // index and reuse one pool of generated fields.
        (0usize..7, any::<u64>(), any::<u32>(), "[a-z ]{0,24}").prop_map(
            |(kind, session, node, query)| match kind {
                0 => Request::Open { query },
                1 => Request::Expand { session, node },
                2 => Request::ShowResults { session, node },
                3 => Request::Close { session },
                4 => Request::Stats,
                5 => Request::Prom,
                _ => Request::Debug,
            },
        )
    }

    /// A stream item: a bare request, an enveloped request, or raw junk
    /// bytes *inside* a legal frame (never a torn prefix — fatal framing
    /// is covered by its own deterministic test).
    fn arb_stream_item() -> impl Strategy<Value = Vec<u8>> {
        (
            0usize..6,
            arb_request(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..64),
        )
            .prop_map(|(kind, req, rid, junk)| {
                if kind < 3 {
                    encode_request(&req)
                } else if kind < 5 {
                    encode_request_ctx(
                        WireCtx {
                            request_id: rid,
                            session: 0,
                            deadline_ns: 0,
                        },
                        &req,
                    )
                } else {
                    super::frame(&junk)
                }
            })
    }

    proptest! {
        /// Chunking invariance: any split of the concatenated byte stream
        /// decodes to exactly the events of the whole-stream decode.
        #[test]
        fn chunking_never_changes_events(
            items in proptest::collection::vec(arb_stream_item(), 0..8),
            cuts in proptest::collection::vec(0usize..4096, 0..12),
        ) {
            let stream: Vec<u8> = items.concat();

            let mut whole = Conn::new();
            let expected = whole.feed_bytes(&stream).expect("legal framing");

            // Turn the random cut points into a sorted chunk partition.
            let mut points: Vec<usize> =
                cuts.into_iter().map(|c| c % (stream.len() + 1)).collect();
            points.sort_unstable();
            points.dedup();

            let mut chunked = Conn::new();
            let mut got = Vec::new();
            let mut prev = 0usize;
            for p in points.into_iter().chain(std::iter::once(stream.len())) {
                got.extend(chunked.feed_bytes(&stream[prev..p]).expect("legal framing"));
                prev = p;
            }
            prop_assert_eq!(got, expected);
        }

        /// Encode→decode is the identity for every request shape, bare
        /// and enveloped.
        #[test]
        fn request_encode_decode_identity(req in arb_request(), rid in any::<u64>()) {
            let mut conn = Conn::new();
            let events = conn.feed_bytes(&encode_request(&req)).expect("clean frame");
            prop_assert_eq!(events, vec![Event::Request(req.clone(), None)]);
            let ctx = WireCtx { request_id: rid, session: 0, deadline_ns: 0 };
            let events = conn
                .feed_bytes(&encode_request_ctx(ctx, &req))
                .expect("clean frame");
            prop_assert_eq!(events, vec![Event::Request(req, Some(ctx))]);
        }
    }
}
