//! The load generator's side of HTTP: request bytes, response framing,
//! answer parsing, and the open- and closed-loop drivers over
//! non-blocking keep-alive connections multiplexed with `ppoll`.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// Renders one keep-alive `POST` with a JSON body.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: emblookup\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// JSON string literal for `s`.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", emblookup_serve::json::escape(s))
}

/// One framed response.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// The `x-emblookup-shards` header, when present.
    pub shards: Option<String>,
    /// Response body.
    pub body: Vec<u8>,
}

/// Cuts complete responses off a byte stream by `content-length`.
#[derive(Default)]
struct Framer {
    buf: Vec<u8>,
}

impl Framer {
    fn next(&mut self) -> Result<Option<Reply>, String> {
        let data = &self.buf;
        let Some(head_len) = data.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head =
            std::str::from_utf8(&data[..head_len]).map_err(|_| "response head is not UTF-8")?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split_ascii_whitespace().nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or("malformed status line")?;
        let mut length = 0usize;
        let mut shards = None;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().map_err(|_| "bad content-length")?;
            } else if name.eq_ignore_ascii_case("x-emblookup-shards") {
                shards = Some(value.trim().to_string());
            }
        }
        let start = head_len + 4;
        if data.len() < start + length {
            return Ok(None);
        }
        let body = data[start..start + length].to_vec();
        self.buf.drain(..start + length);
        Ok(Some(Reply {
            status,
            shards,
            body,
        }))
    }
}

/// A parsed lookup answer: the rung flag and one hit list per query.
#[derive(Debug, Default)]
pub struct Answer {
    /// `"rung":"full"` and `"degraded":false`.
    pub full: bool,
    /// `(entity id, score)` per hit; a point lookup has one list.
    pub lists: Vec<Vec<(u32, f32)>>,
}

/// Parses a `/lookup` or `/lookup/bulk` body. Scores are parsed
/// straight to `f32` from the server's shortest round-trip rendering,
/// so they compare bit for bit with in-process results.
pub fn parse_answer(body: &[u8]) -> Result<Answer, String> {
    let mut c = Cursor { s: body, i: 0 };
    let mut answer = Answer::default();
    let mut rung_full = false;
    let mut degraded = true;
    c.expect(b'{')?;
    loop {
        let key = c.raw_string()?;
        c.expect(b':')?;
        match key {
            b"rung" => rung_full = c.raw_string()? == b"full",
            b"degraded" => degraded = c.literal()? != b"false",
            b"results" => answer.lists = c.results()?,
            _ => return Err(format!("unexpected key {}", String::from_utf8_lossy(key))),
        }
        if !c.comma_or(b'}')? {
            break;
        }
    }
    answer.full = rung_full && !degraded;
    Ok(answer)
}

struct Cursor<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&mut self) -> Option<u8> {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
        self.s.get(self.i).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.i))
        }
    }

    /// After an element: consumes `,` (true) or `close` (false).
    fn comma_or(&mut self, close: u8) -> Result<bool, String> {
        match self.peek() {
            Some(b',') => {
                self.i += 1;
                Ok(true)
            }
            Some(b) if b == close => {
                self.i += 1;
                Ok(false)
            }
            _ => Err(format!(
                "expected ',' or '{}' at byte {}",
                close as char, self.i
            )),
        }
    }

    /// A string's raw bytes between the quotes, escapes left in place.
    fn raw_string(&mut self) -> Result<&'a [u8], String> {
        self.expect(b'"')?;
        let start = self.i;
        while self.i < self.s.len() {
            match self.s[self.i] {
                b'\\' => self.i += 2,
                b'"' => {
                    self.i += 1;
                    return Ok(&self.s[start..self.i - 1]);
                }
                _ => self.i += 1,
            }
        }
        Err("unterminated string".into())
    }

    /// A number or literal token.
    fn literal(&mut self) -> Result<&'a [u8], String> {
        self.peek();
        let start = self.i;
        while self.i < self.s.len() && !matches!(self.s[self.i], b',' | b'}' | b']') {
            self.i += 1;
        }
        let token = self.s[start..self.i].trim_ascii();
        if token.is_empty() {
            return Err(format!("missing value at byte {start}"));
        }
        Ok(token)
    }

    fn number<T: std::str::FromStr>(&mut self) -> Result<T, String> {
        let token = self.literal()?;
        std::str::from_utf8(token)
            .ok()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("bad number {}", String::from_utf8_lossy(token)))
    }

    fn results(&mut self) -> Result<Vec<Vec<(u32, f32)>>, String> {
        self.expect(b'[')?;
        let nested = self.peek() == Some(b'[');
        if !nested {
            // `[]` or a point lookup's single hit list.
            self.i -= 1;
            return Ok(vec![self.hits()?]);
        }
        let mut lists = Vec::new();
        loop {
            lists.push(self.hits()?);
            if !self.comma_or(b']')? {
                return Ok(lists);
            }
        }
    }

    fn hits(&mut self) -> Result<Vec<(u32, f32)>, String> {
        self.expect(b'[')?;
        let mut hits = Vec::with_capacity(10);
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(hits);
        }
        loop {
            self.expect(b'{')?;
            let (mut id, mut score) = (None, None);
            loop {
                let key = self.raw_string()?;
                self.expect(b':')?;
                match key {
                    b"id" => id = Some(self.number::<u32>()?),
                    b"score" => score = Some(self.number::<f32>()?),
                    b"label" => {
                        self.raw_string()?;
                    }
                    _ => return Err("unexpected hit field".into()),
                }
                if !self.comma_or(b'}')? {
                    break;
                }
            }
            hits.push((
                id.ok_or("hit without id")?,
                score.ok_or("hit without score")?,
            ));
            if !self.comma_or(b']')? {
                return Ok(hits);
            }
        }
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: i32 = 29;

/// Readies the calling thread to generate load: timer slack of 1 ns, so
/// `ppoll` wakes on time for the next due send instead of up to 50 µs
/// late, and a pin to the last core, so the generator and the server's
/// threads settle on the same cores in every run instead of a placement
/// that changes latency from run to run. Threads inherit both settings
/// from their creator, so call it on a thread that starts no server.
pub fn prepare_generator_thread(cores: usize) {
    let last = cores.clamp(1, 64) - 1;
    let mask: u64 = 1 << last;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
    // only the calling thread's scheduling attributes; `mask` is a live
    // 8-byte CPU set and pid 0 names the calling thread. Failures leave
    // the thread as it was, which only costs accuracy.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
        sched_setaffinity(0, std::mem::size_of::<u64>(), &mask);
    }
}

/// Blocks until one of `fds` is ready or `timeout` passes.
fn wait(fds: &mut [PollFd], timeout: Duration) {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // pollfd structs and `ts` outlives the call; a null sigmask leaves
    // the signal mask unchanged. An error (EINTR) just ends the wait.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

/// One non-blocking keep-alive connection with its send buffer, its
/// response framer and the ids of its requests in flight, oldest first.
pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    framer: Framer,
    in_flight: VecDeque<usize>,
    dead: bool,
}

impl Conn {
    /// Connects to `addr`.
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            framer: Framer::default(),
            in_flight: VecDeque::new(),
            dead: false,
        })
    }

    fn queue(&mut self, id: usize, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
        self.in_flight.push_back(id);
    }

    /// Writes what the socket takes without blocking.
    fn flush(&mut self) -> io::Result<()> {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads what has arrived; `Ok(false)` on end of stream.
    fn fill(&mut self) -> io::Result<bool> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(false),
                Ok(n) => self.framer.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn pollfd(&self) -> PollFd {
        let events = if self.out.is_empty() {
            POLLIN
        } else {
            POLLIN | POLLOUT
        };
        PollFd {
            fd: self.stream.as_raw_fd(),
            events,
            revents: 0,
        }
    }

    /// Sends one request and waits for its response (closed loop).
    pub fn roundtrip(&mut self, bytes: &[u8]) -> Result<Reply, String> {
        self.queue(0, bytes);
        let give_up = Instant::now() + Duration::from_secs(30);
        loop {
            self.flush().map_err(|e| format!("write: {e}"))?;
            if let Some(reply) = self.framer.next()? {
                self.in_flight.pop_front();
                return Ok(reply);
            }
            let now = Instant::now();
            if now >= give_up {
                return Err("no response within 30 s".into());
            }
            wait(&mut [self.pollfd()], give_up - now);
            if !self.fill().map_err(|e| format!("read: {e}"))? {
                return Err("connection closed".into());
            }
        }
    }
}

/// What one open-loop step measured.
#[derive(Debug, Default, Clone)]
pub struct Step {
    /// Offered arrival rate, requests per second.
    pub rate: f64,
    /// Requests that came due and were taken up by the generator.
    pub sent: usize,
    /// Requests answered and passing the answer check.
    pub ok: usize,
    /// Requests failed: bad status or answer, connection error, or no
    /// response by the end of the drain.
    pub failed: usize,
    /// Latency of each passing request from when it was due, in ms.
    pub lat_ms: Vec<f64>,
    /// How late the generator took up each request after its due time,
    /// in ms.
    pub late_ms: Vec<f64>,
    /// Requests waiting or in flight when the last one came due.
    pub backlog_end: usize,
    /// Passing requests per second over the step's span.
    pub achieved_rps: f64,
}

/// Longest wait for the last responses of a step.
const DRAIN: Duration = Duration::from_secs(3);

/// Offers `reqs` at `rate` per second on a fixed, evenly spaced schedule
/// that never waits for replies, and times each request from when it was
/// due, so a stall delays every later request too.
///
/// With `pipeline`, a due request is written at once to the connection
/// with the fewest in flight, behind the requests already there. Without
/// it, the connections form a client pool: a due request goes to an idle
/// connection, or waits in the client until one frees up, so at most one
/// request is on each connection. `check(i, reply)` validates the answer
/// to request `i`.
pub fn open_loop(
    conns: &mut [Conn],
    reqs: &[Vec<u8>],
    rate: f64,
    pipeline: bool,
    check: &mut Check<'_>,
) -> Step {
    let n = reqs.len();
    let interval = 1e9 / rate;
    let t0 = Instant::now() + Duration::from_millis(1);
    let due = |i: usize| t0 + Duration::from_nanos((i as f64 * interval) as u64);
    let mut step = Step {
        rate,
        late_ms: Vec::with_capacity(n),
        lat_ms: Vec::with_capacity(n),
        ..Step::default()
    };
    let mut next = 0;
    let mut done = 0;
    let mut waiting: VecDeque<usize> = VecDeque::new();
    let mut last_reply = t0;
    let mut drain_until: Option<Instant> = None;
    let mut fds: Vec<PollFd> = Vec::with_capacity(conns.len());
    loop {
        let now = Instant::now();
        while next < n && due(next) <= now {
            step.late_ms.push((now - due(next)).as_secs_f64() * 1e3);
            waiting.push_back(next);
            next += 1;
            step.sent += 1;
        }
        dispatch(conns, &mut waiting, reqs, pipeline);
        if conns.iter().all(|c| c.dead) {
            for id in waiting.drain(..) {
                check(id, Err("no live connection".into()));
                step.failed += 1;
                done += 1;
            }
        }
        for conn in conns.iter_mut().filter(|c| !c.dead) {
            if let Err(e) = conn.flush() {
                fail_conn(conn, &format!("write: {e}"), &mut step, &mut done, check);
            }
        }
        if next == n && drain_until.is_none() {
            step.backlog_end = n - done;
            drain_until = Some(now + DRAIN);
        }
        if done == n {
            break;
        }
        let timeout = match drain_until {
            None => due(next).saturating_duration_since(now),
            Some(end) if now >= end => {
                for id in waiting.drain(..) {
                    check(id, Err("not sent before the drain ended".into()));
                    step.failed += 1;
                }
                for conn in conns.iter_mut() {
                    fail_conn(
                        conn,
                        "no response before the drain ended",
                        &mut step,
                        &mut done,
                        check,
                    );
                }
                break;
            }
            Some(end) => end - now,
        };
        fds.clear();
        fds.extend(conns.iter().filter(|c| !c.dead).map(Conn::pollfd));
        wait(&mut fds, timeout);
        if let Some(at) = collect(conns, &fds, &mut step, &mut done, &due, check) {
            last_reply = at;
        }
    }
    let span = (last_reply - t0).as_secs_f64().max(n as f64 / rate);
    step.achieved_rps = step.ok as f64 / span;
    step
}

/// Keeps every live connection busy with one request at a time, a
/// closed loop of `conns.len()` clients, until `span` has passed or
/// `reqs` run out, then waits for the last replies. Each request is
/// timed from its send. The step's `rate` is 0 and its `achieved_rps` is
/// the saturation throughput of that many clients.
pub fn closed_loop(
    conns: &mut [Conn],
    reqs: &[Vec<u8>],
    span: Duration,
    check: &mut Check<'_>,
) -> Step {
    let n = reqs.len();
    let t0 = Instant::now();
    let stop = t0 + span;
    let mut sent_at = vec![t0; n];
    let mut step = Step::default();
    let mut next = 0;
    let mut done = 0;
    let mut last_reply = t0;
    let mut give_up = t0 + span + DRAIN;
    let mut fds: Vec<PollFd> = Vec::with_capacity(conns.len());
    loop {
        let now = Instant::now();
        for conn in conns.iter_mut().filter(|c| !c.dead) {
            if conn.in_flight.is_empty() && next < n && now < stop {
                conn.queue(next, &reqs[next]);
                sent_at[next] = now;
                next += 1;
                step.sent += 1;
            }
            if let Err(e) = conn.flush() {
                fail_conn(conn, &format!("write: {e}"), &mut step, &mut done, check);
            }
        }
        if done == next && (next == n || now >= stop || conns.iter().all(|c| c.dead)) {
            break;
        }
        if now >= give_up {
            for conn in conns.iter_mut() {
                fail_conn(
                    conn,
                    "no response within the drain",
                    &mut step,
                    &mut done,
                    check,
                );
            }
            break;
        }
        fds.clear();
        fds.extend(conns.iter().filter(|c| !c.dead).map(Conn::pollfd));
        wait(&mut fds, give_up - now);
        let started = |id: usize| sent_at[id];
        if let Some(at) = collect(conns, &fds, &mut step, &mut done, &started, check) {
            last_reply = at;
            give_up = give_up.max(at + DRAIN);
        }
    }
    step.achieved_rps = step.ok as f64 / (last_reply - t0).as_secs_f64().max(1e-9);
    step
}

/// Reads the connections `fds` marks ready (in the order
/// `conns.iter().filter(|c| !c.dead)` gives them), checks each complete
/// reply and times a passing one from `start(id)`. Returns when the last
/// passing reply arrived, if one did.
fn collect(
    conns: &mut [Conn],
    fds: &[PollFd],
    step: &mut Step,
    done: &mut usize,
    start: &dyn Fn(usize) -> Instant,
    check: &mut Check<'_>,
) -> Option<Instant> {
    let mut last = None;
    for (conn, fd) in conns.iter_mut().filter(|c| !c.dead).zip(fds) {
        if fd.revents == 0 {
            continue;
        }
        let open = match conn.fill() {
            Ok(open) => open,
            Err(e) => {
                fail_conn(conn, &format!("read: {e}"), step, done, check);
                continue;
            }
        };
        let at = Instant::now();
        loop {
            match conn.framer.next() {
                Ok(Some(reply)) => {
                    let Some(id) = conn.in_flight.pop_front() else {
                        break;
                    };
                    *done += 1;
                    if check(id, Ok(&reply)) {
                        step.ok += 1;
                        step.lat_ms.push((at - start(id)).as_secs_f64() * 1e3);
                        last = Some(at);
                    } else {
                        step.failed += 1;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    fail_conn(conn, &e, step, done, check);
                    break;
                }
            }
        }
        if !open && !conn.dead {
            fail_conn(conn, "connection closed", step, done, check);
        }
    }
    last
}

/// Hands waiting requests, oldest first, to connections that take them:
/// the least loaded live one when pipelining, else an idle one.
fn dispatch(conns: &mut [Conn], waiting: &mut VecDeque<usize>, reqs: &[Vec<u8>], pipeline: bool) {
    while let Some(&id) = waiting.front() {
        let live = conns.iter_mut().filter(|c| !c.dead);
        let conn = if pipeline {
            live.min_by_key(|c| c.in_flight.len())
        } else {
            live.into_iter().find(|c| c.in_flight.is_empty())
        };
        let Some(conn) = conn else { return };
        conn.queue(id, &reqs[id]);
        waiting.pop_front();
    }
}

type Check<'a> = dyn FnMut(usize, Result<&Reply, String>) -> bool + 'a;

/// Marks `conn` dead and fails every request still in flight on it.
fn fail_conn(conn: &mut Conn, why: &str, step: &mut Step, done: &mut usize, check: &mut Check<'_>) {
    conn.dead = true;
    for id in conn.in_flight.drain(..) {
        check(id, Err(why.to_string()));
        step.failed += 1;
        *done += 1;
    }
}
