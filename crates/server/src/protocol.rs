//! Wire protocol: length-prefixed frames with a one-byte opcode.
//!
//! Every message is `u32` big-endian body length, then the body; the body's
//! first byte is the opcode, the rest is the opcode-specific payload. All
//! integers are big-endian, all strings are `u32`-length-prefixed UTF-8.
//!
//! Requests: [`Request::Hello`] (tenant name), [`Request::Register`]
//! (table name + schema + rows), [`Request::Query`] (SQL text + optional
//! deadline), [`Request::Stats`], [`Request::Cancel`] (in-flight job id),
//! [`Request::Goodbye`]. Responses: [`Response::Ok`],
//! [`Response::Err`] (message), [`Response::Rows`] (schema + rows),
//! [`Response::Stats`] (key/value lines).
//!
//! Values are tagged: `0` null, `1` bool (+1 byte), `2` int (+8 bytes),
//! `3` float (+8 bytes, IEEE bits), `4` string (+length-prefixed UTF-8).
//! The encoding is canonical — equal rows encode to equal bytes — which the
//! byte-identical plan-cache acceptance checks rely on.

use std::io::{Read, Write};

use rheem_core::{DataType, Record, Schema, Value};

/// Largest frame body accepted (16 MiB): a malformed or malicious length
/// prefix must not make the server attempt an unbounded allocation.
pub const MAX_FRAME: usize = 16 << 20;

/// A protocol-level error (I/O or malformed frame).
#[derive(Debug)]
pub enum WireError {
    /// Underlying socket error.
    Io(std::io::Error),
    /// Frame violated the encoding (bad opcode, bad tag, overlong, ...).
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Result alias for protocol operations.
pub type WireResult<T> = std::result::Result<T, WireError>;

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a session as the named tenant. Must be the first message.
    Hello {
        /// Tenant (accounting/quota identity), e.g. `"alpha"`.
        tenant: String,
    },
    /// Register (or replace) an in-memory table in the session catalog.
    Register {
        /// Table name as referenced from SQL.
        name: String,
        /// Column names and types.
        schema: Schema,
        /// Table rows.
        rows: Vec<Record>,
    },
    /// Plan and execute a SQL query; replies with [`Response::Rows`].
    Query {
        /// SQL text.
        sql: String,
        /// Optional per-request deadline in milliseconds, counted from
        /// the moment the server admits the request: queue-wait time is
        /// charged against it, and a request that ages out in the
        /// admission queue is shed before ever costing a worker.
        deadline_ms: Option<u64>,
    },
    /// Ask for server-side counters; replies with [`Response::Stats`].
    Stats,
    /// Cancel an in-flight job of this session's tenant. `job: 0`
    /// cancels every in-flight job of the tenant. Replies with
    /// [`Response::Ok`] whether or not the id was still running
    /// (cancellation is idempotent).
    Cancel {
        /// Server-assigned job id (reported in `STATS` under
        /// `server.tenant.<t>.inflight_ids`), or `0` for all.
        job: u64,
    },
    /// Close the session cleanly.
    Goodbye,
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success without data.
    Ok,
    /// Failure: admission rejection, planning error, execution error.
    Err {
        /// Human-readable cause.
        message: String,
    },
    /// Query output.
    Rows {
        /// Output schema.
        schema: Schema,
        /// Result rows.
        rows: Vec<Record>,
    },
    /// Counter snapshot as `name=value` lines.
    Stats {
        /// The rendered counter lines.
        text: String,
    },
}

const OP_HELLO: u8 = 0x01;
const OP_REGISTER: u8 = 0x02;
const OP_QUERY: u8 = 0x03;
const OP_STATS: u8 = 0x04;
const OP_GOODBYE: u8 = 0x05;
const OP_CANCEL: u8 = 0x06;
const OP_OK: u8 = 0x80;
const OP_ERR: u8 = 0x81;
const OP_ROWS: u8 = 0x82;
const OP_STATS_REPLY: u8 = 0x83;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Bool(b) => {
            buf.push(1);
            buf.push(u8::from(*b));
        }
        Value::Int(i) => {
            buf.push(2);
            buf.extend_from_slice(&i.to_be_bytes());
        }
        Value::Float(x) => {
            buf.push(3);
            buf.extend_from_slice(&x.to_bits().to_be_bytes());
        }
        Value::Str(s) => {
            buf.push(4);
            put_str(buf, s);
        }
    }
}

fn put_schema(buf: &mut Vec<u8>, schema: &Schema) {
    put_u32(buf, schema.fields().len() as u32);
    for field in schema.fields() {
        put_str(buf, &field.name);
        buf.push(match field.dtype {
            DataType::Bool => 0,
            DataType::Int => 1,
            DataType::Float => 2,
            DataType::Str => 3,
        });
    }
}

/// Encode rows canonically (used both inside frames and by the bench's
/// byte-identical output comparison).
pub fn encode_rows(rows: &[Record]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32(&mut buf, rows.len() as u32);
    for row in rows {
        put_u32(&mut buf, row.width() as u32);
        for v in row.fields() {
            put_value(&mut buf, v);
        }
    }
    buf
}

impl Request {
    /// Serialize into a frame body (opcode + payload, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Hello { tenant } => {
                buf.push(OP_HELLO);
                put_str(&mut buf, tenant);
            }
            Request::Register { name, schema, rows } => {
                buf.push(OP_REGISTER);
                put_str(&mut buf, name);
                put_schema(&mut buf, schema);
                buf.extend_from_slice(&encode_rows(rows));
            }
            Request::Query { sql, deadline_ms } => {
                buf.push(OP_QUERY);
                put_str(&mut buf, sql);
                // Presence byte keeps the strict trailing-bytes check:
                // a deadline is either fully there or fully absent.
                match deadline_ms {
                    Some(ms) => {
                        buf.push(1);
                        buf.extend_from_slice(&ms.to_be_bytes());
                    }
                    None => buf.push(0),
                }
            }
            Request::Stats => buf.push(OP_STATS),
            Request::Cancel { job } => {
                buf.push(OP_CANCEL);
                buf.extend_from_slice(&job.to_be_bytes());
            }
            Request::Goodbye => buf.push(OP_GOODBYE),
        }
        buf
    }
}

impl Response {
    /// Serialize into a frame body (opcode + payload, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::Ok => buf.push(OP_OK),
            Response::Err { message } => {
                buf.push(OP_ERR);
                put_str(&mut buf, message);
            }
            Response::Rows { schema, rows } => {
                buf.push(OP_ROWS);
                put_schema(&mut buf, schema);
                buf.extend_from_slice(&encode_rows(rows));
            }
            Response::Stats { text } => {
                buf.push(OP_STATS_REPLY);
                put_str(&mut buf, text);
            }
        }
        buf
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over a frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| WireError::Malformed("truncated frame".into()))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> WireResult<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> WireResult<u64> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> WireResult<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed("string is not UTF-8".into()))
    }

    fn value(&mut self) -> WireResult<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.u8()? != 0),
            2 => Value::Int(self.u64()? as i64),
            3 => Value::Float(f64::from_bits(self.u64()?)),
            4 => Value::str(self.str()?),
            tag => return Err(WireError::Malformed(format!("unknown value tag {tag}"))),
        })
    }

    fn schema(&mut self) -> WireResult<Schema> {
        let n = self.u32()? as usize;
        let mut fields = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let name = self.str()?;
            let dtype = match self.u8()? {
                0 => DataType::Bool,
                1 => DataType::Int,
                2 => DataType::Float,
                3 => DataType::Str,
                tag => return Err(WireError::Malformed(format!("unknown dtype tag {tag}"))),
            };
            fields.push((name, dtype));
        }
        Ok(Schema::new(fields))
    }

    fn rows(&mut self) -> WireResult<Vec<Record>> {
        let n = self.u32()? as usize;
        let mut rows = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let width = self.u32()? as usize;
            let mut fields = Vec::with_capacity(width.min(1024));
            for _ in 0..width {
                fields.push(self.value()?);
            }
            rows.push(Record::new(fields));
        }
        Ok(rows)
    }

    fn finished(&self) -> WireResult<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes in frame".into()))
        }
    }
}

impl Request {
    /// Decode a frame body.
    pub fn decode(body: &[u8]) -> WireResult<Self> {
        let mut c = Cursor::new(body);
        let req = match c.u8()? {
            OP_HELLO => Request::Hello { tenant: c.str()? },
            OP_REGISTER => Request::Register {
                name: c.str()?,
                schema: c.schema()?,
                rows: c.rows()?,
            },
            OP_QUERY => {
                let sql = c.str()?;
                let deadline_ms = match c.u8()? {
                    0 => None,
                    1 => Some(c.u64()?),
                    tag => {
                        return Err(WireError::Malformed(format!(
                            "unknown deadline presence tag {tag}"
                        )))
                    }
                };
                Request::Query { sql, deadline_ms }
            }
            OP_STATS => Request::Stats,
            OP_CANCEL => Request::Cancel { job: c.u64()? },
            OP_GOODBYE => Request::Goodbye,
            op => {
                return Err(WireError::Malformed(format!(
                    "unknown request opcode {op:#x}"
                )))
            }
        };
        c.finished()?;
        Ok(req)
    }
}

impl Response {
    /// Decode a frame body.
    pub fn decode(body: &[u8]) -> WireResult<Self> {
        let mut c = Cursor::new(body);
        let resp = match c.u8()? {
            OP_OK => Response::Ok,
            OP_ERR => Response::Err { message: c.str()? },
            OP_ROWS => Response::Rows {
                schema: c.schema()?,
                rows: c.rows()?,
            },
            OP_STATS_REPLY => Response::Stats { text: c.str()? },
            op => {
                return Err(WireError::Malformed(format!(
                    "unknown response opcode {op:#x}"
                )))
            }
        };
        c.finished()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Write one frame (length prefix + body) to a stream with a single
/// `write_all`. Prefix and body leave in one buffer so a peer without
/// `TCP_NODELAY` never holds back the body behind a lone 4-byte segment
/// (Nagle waiting out the peer's delayed ACK).
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> WireResult<()> {
    if body.len() > MAX_FRAME {
        return Err(WireError::Malformed(format!(
            "frame of {} bytes exceeds MAX_FRAME",
            body.len()
        )));
    }
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read one frame body from a stream. Returns `Ok(None)` on a clean EOF at
/// a frame boundary (peer hung up between messages).
pub fn read_frame(r: &mut impl Read) -> WireResult<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Malformed("EOF inside length prefix".into())),
            Ok(n) => filled += n,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Malformed(format!(
            "declared frame of {len} bytes exceeds MAX_FRAME"
        )));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let body = req.encode();
        assert_eq!(Request::decode(&body).unwrap(), req);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Hello {
            tenant: "alpha".into(),
        });
        roundtrip_request(Request::Query {
            sql: "SELECT a FROM t WHERE a > 1".into(),
            deadline_ms: None,
        });
        roundtrip_request(Request::Query {
            sql: "SELECT a FROM t".into(),
            deadline_ms: Some(1_500),
        });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Cancel { job: 7 });
        roundtrip_request(Request::Cancel { job: 0 });
        roundtrip_request(Request::Goodbye);
        roundtrip_request(Request::Register {
            name: "t".into(),
            schema: Schema::new(vec![("a", DataType::Int), ("s", DataType::Str)]),
            rows: vec![
                Record::new(vec![Value::Int(1), Value::str("x")]),
                Record::new(vec![Value::Null, Value::Bool(true)]),
                Record::new(vec![Value::Float(2.5), Value::str("")]),
            ],
        });
    }

    #[test]
    fn responses_roundtrip() {
        let resps = vec![
            Response::Ok,
            Response::Err {
                message: "over quota".into(),
            },
            Response::Rows {
                schema: Schema::new(vec![("n", DataType::Int)]),
                rows: vec![Record::new(vec![Value::Int(42)])],
            },
            Response::Stats {
                text: "optimizer.plan_cache.hits=3\n".into(),
            },
        ];
        for resp in resps {
            let body = resp.encode();
            assert_eq!(Response::decode(&body).unwrap(), resp);
        }
    }

    #[test]
    fn equal_rows_encode_to_equal_bytes() {
        let a = vec![Record::new(vec![Value::Int(7), Value::str("abc")])];
        let b = vec![Record::new(vec![Value::Int(7), Value::str("abc")])];
        assert_eq!(encode_rows(&a), encode_rows(&b));
        let c = vec![Record::new(vec![Value::Int(8), Value::str("abc")])];
        assert_ne!(encode_rows(&a), encode_rows(&c));
    }

    #[test]
    fn framing_roundtrips_and_rejects_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Stats.encode()).unwrap();
        let mut r = std::io::Cursor::new(buf);
        let body = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(Request::decode(&body).unwrap(), Request::Stats);
        assert!(read_frame(&mut r).unwrap().is_none());

        // A hostile length prefix is rejected without allocating.
        let mut hostile = std::io::Cursor::new(vec![0xFF, 0xFF, 0xFF, 0xFF]);
        assert!(matches!(
            read_frame(&mut hostile),
            Err(WireError::Malformed(_))
        ));
    }

    /// A `Write` that accepts everything and counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_issues_one_write_per_frame() {
        let bodies = [
            Request::Stats.encode(),
            Response::Rows {
                schema: Schema::new(vec![("n", DataType::Int)]),
                rows: (0..1000)
                    .map(|i| Record::new(vec![Value::Int(i)]))
                    .collect(),
            }
            .encode(),
            Vec::new(),
        ];
        for body in &bodies {
            let mut w = CountingWriter::default();
            write_frame(&mut w, body).unwrap();
            assert_eq!(
                w.writes,
                1,
                "{}-byte body took {} writes",
                body.len(),
                w.writes
            );
            assert_eq!(&w.bytes[..4], &(body.len() as u32).to_be_bytes());
            assert_eq!(&w.bytes[4..], &body[..]);
        }
    }

    #[test]
    fn oversize_body_is_rejected_before_any_byte_is_written() {
        let body = vec![0u8; MAX_FRAME + 1];
        let mut w = CountingWriter::default();
        assert!(matches!(
            write_frame(&mut w, &body),
            Err(WireError::Malformed(_))
        ));
        assert_eq!(w.writes, 0);
        assert!(w.bytes.is_empty());
    }

    #[test]
    fn truncated_frames_are_malformed_not_panics() {
        let mut body = Request::Query {
            sql: "SELECT".into(),
            deadline_ms: Some(9),
        }
        .encode();
        body.truncate(body.len() - 2);
        assert!(matches!(
            Request::decode(&body),
            Err(WireError::Malformed(_))
        ));
        // Trailing garbage is also rejected.
        let mut body = Request::Stats.encode();
        body.push(0);
        assert!(matches!(
            Request::decode(&body),
            Err(WireError::Malformed(_))
        ));
    }
}
