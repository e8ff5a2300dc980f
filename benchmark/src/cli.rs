//! Cold `aadlsched` processes, one after another (a closed loop).

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads peak RSS through wait4(2) as laid out on 64-bit Linux");

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s,
/// the first of which is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// One finished `aadlsched` process.
pub struct Proc {
    pub wall_ms: f64,
    /// Exit code; `None` when a signal ended the process.
    pub code: Option<i32>,
    pub max_rss_kb: u64,
}

/// Reap `pid` and return its wait status and peak RSS. `std`'s `Child::wait`
/// discards the resource usage the kernel reports, so the child is reaped
/// here instead and its `Child` handle is never waited on.
fn reap(pid: u32) -> io::Result<(i32, u64)> {
    let pid = i32::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // wait4(2) expects on 64-bit Linux (checked by the `compile_error!`
        // gate above); `pid` is a child of this process that nothing else
        // reaps.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            return Ok((status, u64::try_from(usage.maxrss).unwrap_or(0)));
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Run `aadlsched <file>` with default options and wait for it.
pub fn run(bin: &Path, file: &Path) -> io::Result<Proc> {
    let t0 = Instant::now();
    let child = Command::new(bin)
        .arg(file)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()?;
    let (status, max_rss_kb) = reap(child.id())?;
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Proc {
        wall_ms,
        code,
        max_rss_kb,
    })
}

/// An input file and the exit code its reference verdict implies.
pub struct Job {
    pub path: PathBuf,
    pub expected: i32,
}

/// What a closed loop of cold processes measured.
#[derive(Default)]
pub struct Loop {
    pub latencies_ms: Vec<f64>,
    pub wall_s: f64,
    pub max_rss_kb: u64,
    pub attempted: usize,
    /// Exit 2 or 3, or killed by a signal.
    pub failed: usize,
    /// The first verdict that disagreed with the reference; the loop stops
    /// there.
    pub wrong: Option<String>,
}

/// Whole passes over `jobs` while the next pass still fits in `budget`, and
/// at least one, so every job runs equally often.
pub fn closed_loop(bin: &Path, jobs: &[Job], budget: Duration) -> io::Result<Loop> {
    let mut out = Loop::default();
    let start = Instant::now();
    loop {
        let pass = Instant::now();
        for job in jobs {
            let p = run(bin, &job.path)?;
            out.attempted += 1;
            out.latencies_ms.push(p.wall_ms);
            out.max_rss_kb = out.max_rss_kb.max(p.max_rss_kb);
            match p.code {
                Some(c) if c == job.expected => {}
                Some(c @ (0 | 1)) => {
                    out.wrong = Some(format!(
                        "{}: aadlsched exited {c}, the reference says {}",
                        job.path.display(),
                        job.expected
                    ));
                    out.wall_s = start.elapsed().as_secs_f64();
                    return Ok(out);
                }
                _ => out.failed += 1,
            }
        }
        if start.elapsed() + pass.elapsed() > budget {
            break;
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    Ok(out)
}
