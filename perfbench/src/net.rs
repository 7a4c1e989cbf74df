//! Client-side helpers shared by the serving and cluster workloads.

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use skyline_serve::client::{ClientResponse, Session};

/// `[[v, ...], ...]` with shortest round-trip floats, so rows reach the
/// server bit-exact.
pub fn rows_json<R: AsRef<[f64]>>(rows: &[R]) -> String {
    let mut out = String::with_capacity(rows.len() * 16 * 8);
    out.push('[');
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, v) in row.as_ref().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v}");
        }
        out.push(']');
    }
    out.push(']');
    out
}

/// Rows per insert request when loading a dataset.
const LOAD_BATCH: usize = 2000;

/// Create dataset `name` and load `rows` in batches, so no request body
/// (and no parse tree on the server) is larger than one batch.
pub fn create_dataset<R: AsRef<[f64]>>(
    c: &mut Client,
    name: &str,
    rows: &[R],
) -> Result<(), String> {
    let dims = rows.first().map_or(0, |r| r.as_ref().len());
    let body = format!("{{\"name\":\"{name}\",\"dims\":{dims},\"rows\":[]}}");
    c.expect("POST", "/datasets", body.as_bytes(), 201)?;
    let path = format!("/datasets/{name}/points");
    for batch in rows.chunks(LOAD_BATCH) {
        let body = format!("{{\"rows\":{}}}", rows_json(batch));
        c.expect("POST", &path, body.as_bytes(), 200)?;
    }
    Ok(())
}

/// A keep-alive session that reconnects after a transport error, so
/// one failed request costs one failed op and not the rest of the run.
pub struct Client {
    addr: SocketAddr,
    session: Option<Session>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            session: None,
        }
    }

    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        headers: &[(String, String)],
    ) -> Result<ClientResponse, String> {
        if self.session.is_none() {
            self.session = Some(Session::connect(self.addr).map_err(|e| format!("connect: {e}"))?);
        }
        let session = self.session.as_mut().expect("connected above");
        match session.request_with_headers(method, path, body, headers) {
            Ok(resp) => Ok(resp),
            Err(e) => {
                self.session = None;
                Err(format!("{method} {path}: {e}"))
            }
        }
    }

    /// A request that must answer with `want`.
    pub fn expect(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        want: u16,
    ) -> Result<ClientResponse, String> {
        let resp = self.request(method, path, body, &[])?;
        if resp.status != want {
            return Err(format!(
                "{method} {path}: status {} ({})",
                resp.status,
                resp.body_str()
            ));
        }
        Ok(resp)
    }

    /// Drop the connection (the server sees a clean close).
    pub fn close(&mut self) {
        self.session = None;
    }
}

/// Retry `f` until it succeeds or `limit` passes.
pub fn wait_until<T>(
    limit: Duration,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let start = Instant::now();
    loop {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if start.elapsed() >= limit => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Inverse CDF sampler for a Zipf(s) distribution over ranks `0..n`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank for a uniform draw `u` in `[0, 1)`.
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}
