//! A client for `aadlschedd`: boot, open-loop and closed-loop load, `stats`
//! and shutdown.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::json::Json;

/// How long a reply may take before the benchmark counts it as missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running daemon with its default configuration.
pub struct Daemon {
    child: Child,
    /// Held open until the daemon exits, so a late line it prints never
    /// meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Start `aadlschedd` and wait for its readiness line.
    pub fn boot(bin: &Path) -> io::Result<Daemon> {
        let mut child = Command::new(bin)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let Some(addr) = line.trim().strip_prefix("aadlschedd listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "unexpected daemon output `{}`",
                line.trim()
            )));
        };
        let addr = addr.to_string();
        Ok(Daemon {
            child,
            _stdout: stdout,
            addr,
        })
    }

    pub fn connect(&self) -> io::Result<Conn> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// A field of `/proc/<pid>/status`, in kB (`VmRSS`, `VmHWM`).
    pub fn status_kb(&self, field: &str) -> io::Result<u64> {
        let text = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        text.lines()
            .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other(format!("no {field} in /proc status")))
    }

    /// Graceful drain over `conn`, then wait for the process to exit.
    pub fn shutdown(mut self, conn: &mut Conn) -> io::Result<()> {
        let sent = conn.send("{\"type\":\"shutdown\",\"id\":\"z\"}\n");
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            if self.child.try_wait()?.is_some() {
                return sent;
            }
            if Instant::now() > deadline {
                let _ = self.child.kill();
                self.child.wait()?;
                return Err(io::Error::other("daemon did not exit after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached on an error path; a clean run has already waited in
        // `shutdown`, and then both calls are harmless no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One TCP connection to the daemon.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// The final reply to one `analyze` request.
#[derive(Clone, Copy, Debug)]
pub struct Reply {
    pub at: Instant,
    /// The wire `code` (0/1 verdicts, 2 error, 3 unknown).
    pub code: i32,
}

impl Conn {
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())
    }

    /// Read the next line as JSON.
    fn next(&mut self) -> io::Result<Json> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Json::parse(line.trim()).map_err(io::Error::other)
    }

    /// Read until the final reply (`result` or `error`) to some request;
    /// returns its id and reply.
    fn next_reply(&mut self) -> io::Result<(Option<usize>, Reply)> {
        loop {
            let msg = self.next()?;
            let kind = msg.get("type").and_then(Json::as_str);
            if kind != Some("result") && kind != Some("error") {
                continue;
            }
            let id = msg
                .get("id")
                .and_then(Json::as_str)
                .and_then(|s| s.parse().ok());
            let code = msg.get("code").and_then(Json::as_f64).unwrap_or(2.0) as i32;
            return Ok((
                id,
                Reply {
                    at: Instant::now(),
                    code,
                },
            ));
        }
    }

    /// Send one request and wait for its reply (a closed-loop step).
    pub fn call(&mut self, line: &str) -> io::Result<Reply> {
        self.send(line)?;
        Ok(self.next_reply()?.1)
    }

    /// The daemon's `stats` snapshot.
    pub fn stats(&mut self) -> io::Result<Json> {
        self.send("{\"type\":\"stats\",\"id\":\"s\"}\n")?;
        loop {
            let msg = self.next()?;
            if msg.get("type").and_then(Json::as_str) == Some("stats") {
                return Ok(msg);
            }
        }
    }
}

/// The `analyze` request line for inline model text; `id` is the index the
/// reply is matched on.
pub fn analyze_line(id: usize, source: &str) -> String {
    let req = Json::obj([
        ("type", Json::from("analyze")),
        ("id", Json::from(id.to_string())),
        ("model", Json::from(source)),
    ]);
    format!("{req}\n")
}

/// What an open loop measured, per request.
pub struct OpenLoop {
    pub due: Vec<Instant>,
    pub sent: Vec<Instant>,
    pub replies: Vec<Option<Reply>>,
}

/// Send `lines[i]` at `start + i / rate` on one connection, whether or not
/// earlier requests have been answered, while a second thread collects the
/// replies.
pub fn open_loop(conn: &mut Conn, lines: &[String], rate: f64) -> io::Result<OpenLoop> {
    let n = lines.len();
    let start = Instant::now() + Duration::from_millis(5);
    let due: Vec<Instant> = (0..n)
        .map(|i| start + Duration::from_secs_f64(i as f64 / rate))
        .collect();
    let mut writer = conn.writer.try_clone()?;
    let reader = &mut *conn;
    let mut sent = Vec::with_capacity(n);
    let replies = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut replies: Vec<Option<Reply>> = vec![None; n];
            let mut left = n;
            while left > 0 {
                match reader.next_reply() {
                    Ok((Some(id), reply)) if id < n && replies[id].is_none() => {
                        replies[id] = Some(reply);
                        left -= 1;
                    }
                    Ok(_) => {}
                    Err(_) => break, // timeout or hangup: the rest are missing
                }
            }
            replies
        });
        for (line, &at) in lines.iter().zip(&due) {
            if let Some(wait) = at.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            sent.push(Instant::now());
            if writer.write_all(line.as_bytes()).is_err() {
                break;
            }
        }
        collector.join().expect("reply collector panicked")
    });
    Ok(OpenLoop { due, sent, replies })
}

/// Closed loops on every connection, one thread each: send the next request
/// only after the previous reply, cycling through `lines` until `budget` has
/// passed. Returns `(i, reply)` per request, where request `i` sent
/// `lines[i % lines.len()]`.
pub fn closed_loop(
    conns: &mut [Conn],
    lines: &[String],
    budget: Duration,
) -> Vec<(usize, Option<Reply>)> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for conn in conns.iter_mut() {
            let (next, done) = (&next, &done);
            s.spawn(move || {
                while start.elapsed() < budget {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let reply = conn.call(&lines[i % lines.len()]).ok();
                    done.lock()
                        .expect("no thread panics holding it")
                        .push((i, reply));
                    if reply.is_none() {
                        return; // the connection is broken
                    }
                }
            });
        }
    });
    done.into_inner().expect("no thread panics holding it")
}

/// A histogram of a `stats` snapshot: `(count, sum in ns)`.
pub fn histogram(stats: &Json, name: &str) -> (f64, f64) {
    let h = stats.get("histograms").and_then(|h| h.get(name));
    let field = |k| {
        h.and_then(|h| h.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    (field("count"), field("sum"))
}

/// A counter of a `stats` snapshot.
pub fn counter(stats: &Json, name: &str) -> f64 {
    stats
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}
