//! The wire protocol: newline-delimited JSON objects in both directions.
//!
//! Each request is one JSON object on one line; the server answers with
//! exactly one JSON object on one line, echoing the request `id`. Requests on
//! one connection are handled strictly in order, so pipelining is safe but a
//! connection only ever has one response outstanding per request sent.
//!
//! Operations (`op`):
//!
//! - `"preprocess"` — run the full pipeline (decide → reorder if advised) on
//!   the COO `matrix` payload; returns the permutation and stats.
//! - `"decide"` — cost-model verdict only; returns `label` (+ `k`).
//! - `"ping"` — liveness check, returns `ok: true`.
//! - `"stats"` — server counters snapshot in `stats`.
//! - `"shutdown"` — graceful drain: the server stops admitting work, finishes
//!   (or degrades) everything in flight, and answers this request *after*
//!   the drain completes, so a client observing the response knows no
//!   in-flight work was lost.
//!
//! Rejections (admission control, draining, queue-full) are **well-formed
//! responses** with `ok: false`, a human-readable `error`, and a
//! `retry_after_ms` hint — never a dropped connection.

use serde::{Deserialize, Serialize};
use serde_json::{Lexer, Number};

use bootes_sparse::{CooMatrix, CsrMatrix};

/// Sparse matrix payload in COO triplet form. `vals` may be empty, in which
/// case every listed coordinate gets value `1.0` (pattern-only input — the
/// cost model and the reorderers are structural).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MatrixPayload {
    /// Number of rows.
    #[serde(default)]
    pub nrows: usize,
    /// Number of columns.
    #[serde(default)]
    pub ncols: usize,
    /// Row index of each nonzero.
    #[serde(default)]
    pub rows: Vec<usize>,
    /// Column index of each nonzero.
    #[serde(default)]
    pub cols: Vec<usize>,
    /// Optional values (empty → all `1.0`; otherwise same length as `rows`).
    #[serde(default)]
    pub vals: Vec<f64>,
}

impl MatrixPayload {
    /// Builds a payload from a CSR matrix (used by clients and benches).
    pub fn from_csr(a: &CsrMatrix) -> Self {
        let mut rows = Vec::with_capacity(a.nnz());
        let mut cols = Vec::with_capacity(a.nnz());
        let mut vals = Vec::with_capacity(a.nnz());
        for i in 0..a.nrows() {
            let (ci, vi) = a.row(i);
            for (&c, &v) in ci.iter().zip(vi) {
                rows.push(i);
                cols.push(c);
                vals.push(v);
            }
        }
        MatrixPayload {
            nrows: a.nrows(),
            ncols: a.ncols(),
            rows,
            cols,
            vals,
        }
    }

    /// Approximate wire/working footprint in bytes, used for per-tenant
    /// admission accounting.
    pub fn approx_bytes(&self) -> u64 {
        ((self.rows.len() + self.cols.len()) * std::mem::size_of::<usize>()
            + self.vals.len() * std::mem::size_of::<f64>()
            + std::mem::size_of::<Self>()) as u64
    }

    /// Validates the triplets and converts to CSR.
    ///
    /// # Errors
    ///
    /// See [`MatrixPayload::into_csr`].
    pub fn to_csr(&self) -> Result<CsrMatrix, String> {
        self.clone().into_csr()
    }

    /// Validates the triplets and converts to CSR, moving the triplet
    /// vectors into the conversion instead of copying them.
    ///
    /// # Errors
    ///
    /// Returns a protocol-error string on inconsistent lengths, zero
    /// dimensions with nonzeros, out-of-range indices, or a value that is
    /// not finite.
    pub fn into_csr(self) -> Result<CsrMatrix, String> {
        if self.rows.len() != self.cols.len() {
            return Err(format!(
                "matrix payload: rows/cols length mismatch ({} vs {})",
                self.rows.len(),
                self.cols.len()
            ));
        }
        if !self.vals.is_empty() && self.vals.len() != self.rows.len() {
            return Err(format!(
                "matrix payload: vals length {} does not match {} coordinates",
                self.vals.len(),
                self.rows.len()
            ));
        }
        if self.nrows == 0 || self.ncols == 0 {
            return Err("matrix payload: nrows and ncols must be positive".to_string());
        }
        if let Some(k) = self.vals.iter().position(|v| !v.is_finite()) {
            return Err(non_finite(k));
        }
        let vals = if self.vals.is_empty() {
            vec![1.0; self.rows.len()]
        } else {
            self.vals
        };
        let coo = CooMatrix::from_triplets(self.nrows, self.ncols, self.rows, self.cols, vals)
            .map_err(|e| format!("matrix payload: {e}"))?;
        Ok(coo.to_csr())
    }
}

fn non_finite(k: usize) -> String {
    format!("matrix payload: vals[{k}] is not a finite number")
}

/// One client request (see module docs for the operations).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen id echoed in the response.
    #[serde(default)]
    pub id: u64,
    /// Operation: `preprocess`, `decide`, `ping`, `stats` or `shutdown`.
    #[serde(default)]
    pub op: String,
    /// Tenant name for admission accounting (missing → `"default"`).
    #[serde(default)]
    pub tenant: Option<String>,
    /// Matrix payload for `preprocess` / `decide`.
    #[serde(default)]
    pub matrix: Option<MatrixPayload>,
    /// Per-request deadline in milliseconds, measured from the instant the
    /// server reads the request line. Work still queued when the deadline
    /// passes is answered with a typed `deadline exceeded` rejection (never
    /// silently dropped); work that *finishes* past the deadline is still
    /// answered in full but flagged `deadline_exceeded` so the caller knows
    /// the result arrived late. Missing/zero → no deadline.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
}

/// Server counters snapshot returned by the `stats` operation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Work requests admitted into the queue since startup.
    #[serde(default)]
    pub accepted: u64,
    /// Work requests fully executed (responses sent).
    #[serde(default)]
    pub completed: u64,
    /// Admission-control rejections (tenant budget exceeded).
    #[serde(default)]
    pub rejected_admission: u64,
    /// Rejections because `queue_cap` requests already waited for a slot.
    #[serde(default)]
    pub rejected_queue: u64,
    /// Rejections because the server was draining.
    #[serde(default)]
    pub rejected_draining: u64,
    /// Requests served by coalescing onto another request's computation.
    #[serde(default)]
    pub coalesced: u64,
    /// Requests whose leader was answered from the artifact cache.
    #[serde(default)]
    pub cache_hits: u64,
    /// Lines that failed to parse as a request.
    #[serde(default)]
    pub parse_errors: u64,
    /// Requests rejected on taking their execution slot because their
    /// deadline had already passed while they waited (answered with a typed
    /// rejection).
    #[serde(default)]
    pub deadline_rejected: u64,
    /// Requests answered in full but after their stated deadline.
    #[serde(default)]
    pub deadline_exceeded: u64,
    /// Admitted requests now waiting for an execution slot.
    #[serde(default)]
    pub queue_depth: u64,
    /// Requests now holding an execution slot.
    #[serde(default)]
    pub inflight: u64,
    /// Whether the server is draining.
    #[serde(default)]
    pub draining: bool,
}

/// One server response; `id` echoes the request.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Response {
    /// Echo of the request id.
    #[serde(default)]
    pub id: u64,
    /// Whether the operation succeeded.
    #[serde(default)]
    pub ok: bool,
    /// Failure description when `ok` is false.
    #[serde(default)]
    pub error: Option<String>,
    /// Backoff hint on admission/queue/draining rejections.
    #[serde(default)]
    pub retry_after_ms: Option<u64>,
    /// Cost-model verdict: `"no-reorder"` or `"reorder"`.
    #[serde(default)]
    pub label: Option<String>,
    /// Cluster count when the verdict is `"reorder"`.
    #[serde(default)]
    pub k: Option<u64>,
    /// Row permutation (new-to-old) for `preprocess`.
    #[serde(default)]
    pub permutation: Option<Vec<usize>>,
    /// Algorithm that produced the permutation.
    #[serde(default)]
    pub algorithm: Option<String>,
    /// Whether the artifact cache served the computation.
    #[serde(default)]
    pub cache_hit: bool,
    /// Whether this response was coalesced onto another in-flight request.
    #[serde(default)]
    pub coalesced: bool,
    /// Whether the graceful-degradation chain stepped down (e.g. during a
    /// drain with budget revocation).
    #[serde(default)]
    pub degraded: bool,
    /// True when the request's `deadline_ms` had passed by the time this
    /// response was produced — either a typed rejection (work was still
    /// queued; `ok` is false and `error` says so) or a late full answer
    /// (`ok` is true, result is valid, it just missed the deadline).
    #[serde(default)]
    pub deadline_exceeded: bool,
    /// Milliseconds between admission and taking an execution slot.
    #[serde(default)]
    pub queue_ms: f64,
    /// Milliseconds spent executing.
    #[serde(default)]
    pub exec_ms: f64,
    /// Counters snapshot for the `stats` operation.
    #[serde(default)]
    pub stats: Option<ServerStats>,
}

impl Response {
    /// A failure response for `id`.
    pub fn err(id: u64, error: impl Into<String>) -> Self {
        Response {
            id,
            ok: false,
            error: Some(error.into()),
            ..Response::default()
        }
    }

    /// A failure response with a retry hint (admission/queue/drain rejects).
    pub fn reject(id: u64, error: impl Into<String>, retry_after_ms: u64) -> Self {
        Response {
            retry_after_ms: Some(retry_after_ms),
            ..Response::err(id, error)
        }
    }

    /// A bare success response for `id` (ping/shutdown acknowledgements).
    pub fn ack(id: u64) -> Self {
        Response {
            id,
            ok: true,
            ..Response::default()
        }
    }
}

/// Encodes a message as one protocol line (no trailing newline).
pub fn encode<T: Serialize>(msg: &T) -> String {
    // Serialization of the protocol structs cannot fail (no non-finite
    // floats in required positions, no map keys); a hypothetical failure
    // still yields a well-formed error line instead of a panic.
    serde_json::to_string(msg)
        .unwrap_or_else(|e| format!("{{\"id\":0,\"ok\":false,\"error\":\"encode: {e}\"}}"))
}

/// A message [`decode`] can read from one protocol line.
pub trait Decode: Sized {
    /// Reads one message from `lx`, leaving it after the message.
    ///
    /// # Errors
    ///
    /// Returns the JSON or type error.
    fn read(lx: &mut Lexer<'_>) -> serde_json::Result<Self>;
}

/// Requests are read in one typed pass over the line: the matrix triplets
/// go straight into their vectors, with no JSON tree in between. The
/// derived `Deserialize` is the reference it is tested against: the first
/// occurrence of a repeated key wins and unknown keys are skipped. It
/// differs on purpose in one place: a `null` or non-finite matrix value is
/// an error here, where the derived impl reads `null` as NaN.
impl Decode for Request {
    fn read(lx: &mut Lexer<'_>) -> serde_json::Result<Self> {
        let (mut id, mut op, mut tenant, mut matrix, mut deadline_ms) =
            (None, None, None, None, None);
        lx.object(|lx, key| {
            match key.as_ref() {
                "id" if id.is_none() => id = Some(read_u64(lx)?),
                "op" if op.is_none() => op = Some(read_string(lx)?),
                "tenant" if tenant.is_none() => tenant = Some(nullable(lx, read_string)?),
                "matrix" if matrix.is_none() => matrix = Some(nullable(lx, read_matrix)?),
                "deadline_ms" if deadline_ms.is_none() => {
                    deadline_ms = Some(nullable(lx, read_u64)?);
                }
                _ => lx.skip_value()?,
            }
            Ok(())
        })?;
        Ok(Request {
            id: id.unwrap_or_default(),
            op: op.unwrap_or_default(),
            tenant: tenant.flatten(),
            matrix: matrix.flatten(),
            deadline_ms: deadline_ms.flatten(),
        })
    }
}

impl Decode for Response {
    fn read(lx: &mut Lexer<'_>) -> serde_json::Result<Self> {
        Ok(Response::deserialize(&lx.value()?)?)
    }
}

fn read_matrix(lx: &mut Lexer<'_>) -> serde_json::Result<MatrixPayload> {
    let (mut nrows, mut ncols, mut rows, mut cols, mut vals) = (None, None, None, None, None);
    lx.object(|lx, key| {
        match key.as_ref() {
            "nrows" if nrows.is_none() => nrows = Some(read_usize(lx)?),
            "ncols" if ncols.is_none() => ncols = Some(read_usize(lx)?),
            "rows" if rows.is_none() => rows = Some(read_indices(lx)?),
            "cols" if cols.is_none() => cols = Some(read_indices(lx)?),
            "vals" if vals.is_none() => vals = Some(read_values(lx)?),
            _ => lx.skip_value()?,
        }
        Ok(())
    })?;
    Ok(MatrixPayload {
        nrows: nrows.unwrap_or_default(),
        ncols: ncols.unwrap_or_default(),
        rows: rows.unwrap_or_default(),
        cols: cols.unwrap_or_default(),
        vals: vals.unwrap_or_default(),
    })
}

/// `None` for a `null`, else what `read` reads.
fn nullable<T>(
    lx: &mut Lexer<'_>,
    read: impl FnOnce(&mut Lexer<'_>) -> serde_json::Result<T>,
) -> serde_json::Result<Option<T>> {
    if lx.null()? {
        Ok(None)
    } else {
        read(lx).map(Some)
    }
}

fn read_string(lx: &mut Lexer<'_>) -> serde_json::Result<String> {
    Ok(lx.string()?.into_owned())
}

/// A `u64` by the vendored serde rules: integral floats in range count.
fn read_u64(lx: &mut Lexer<'_>) -> serde_json::Result<u64> {
    match lx.number()? {
        Number::UInt(u) => Ok(u),
        Number::Int(i) if i >= 0 => Ok(i as u64),
        Number::Float(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => Ok(f as u64),
        _ => Err(lx.error("expected u64")),
    }
}

fn read_usize(lx: &mut Lexer<'_>) -> serde_json::Result<usize> {
    let u = read_u64(lx)?;
    usize::try_from(u).map_err(|_| lx.error("out of range for usize"))
}

fn read_indices(lx: &mut Lexer<'_>) -> serde_json::Result<Vec<usize>> {
    let mut out = Vec::new();
    lx.array(|lx| {
        out.push(read_usize(lx)?);
        Ok(())
    })?;
    Ok(out)
}

fn read_values(lx: &mut Lexer<'_>) -> serde_json::Result<Vec<f64>> {
    let mut out = Vec::new();
    lx.array(|lx| {
        let v = if lx.null()? {
            f64::NAN
        } else {
            match lx.number()? {
                Number::Float(f) => f,
                Number::Int(i) => i as f64,
                Number::UInt(u) => u as f64,
            }
        };
        if !v.is_finite() {
            return Err(lx.error(non_finite(out.len())));
        }
        out.push(v);
        Ok(())
    })?;
    Ok(out)
}

/// Decodes one protocol line: a [`Request`] on the daemon's side, a
/// [`Response`] on the client's.
///
/// # Errors
///
/// Returns the parse error rendered as text.
pub fn decode<T: Decode>(line: &str) -> Result<T, String> {
    let mut lx = Lexer::new(line);
    T::read(&mut lx)
        .and_then(|msg| lx.end().map(|()| msg))
        .map_err(|e| format!("bad request line: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_and_defaults() {
        let line = r#"{"op":"preprocess","id":7,"matrix":{"nrows":2,"ncols":2,"rows":[0,1],"cols":[0,1]}}"#;
        let req: Request = decode(line).expect("parses");
        assert_eq!(req.id, 7);
        assert_eq!(req.op, "preprocess");
        assert!(req.tenant.is_none());
        let m = req.matrix.clone().expect("payload present");
        let a = m.to_csr().expect("valid payload");
        assert_eq!((a.nrows(), a.ncols(), a.nnz()), (2, 2, 2));
        // Missing vals default to 1.0.
        assert_eq!(a.row(0).1, &[1.0]);
        let back: Request = decode(&encode(&req)).expect("roundtrips");
        assert_eq!(back.id, 7);
        assert_eq!(back.matrix.expect("payload").nrows, 2);
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        let mismatch = MatrixPayload {
            nrows: 2,
            ncols: 2,
            rows: vec![0, 1],
            cols: vec![0],
            vals: vec![],
        };
        assert!(mismatch.to_csr().is_err());
        let out_of_range = MatrixPayload {
            nrows: 2,
            ncols: 2,
            rows: vec![5],
            cols: vec![0],
            vals: vec![],
        };
        assert!(out_of_range.to_csr().is_err());
        let empty_dims = MatrixPayload::default();
        assert!(empty_dims.to_csr().is_err());
    }

    #[test]
    fn csr_payload_roundtrip() {
        let mut coo = CooMatrix::new(3, 3);
        for (r, c, v) in [(0, 1, 2.0), (1, 1, 1.5), (2, 0, -1.0)] {
            coo.push(r, c, v).expect("in range");
        }
        let a = coo.to_csr();
        let payload = MatrixPayload::from_csr(&a);
        assert_eq!(payload.to_csr().expect("valid"), a);
        assert!(payload.approx_bytes() > 0);
    }

    #[test]
    fn response_helpers_shape() {
        let r = Response::reject(3, "queue full", 25);
        assert!(!r.ok);
        assert_eq!(r.retry_after_ms, Some(25));
        let line = encode(&r);
        let back: Response = decode(&line).expect("roundtrips");
        assert_eq!(back.id, 3);
        assert_eq!(back.error.as_deref(), Some("queue full"));
    }
}
