//! Run one child process to completion and take its wall clock and
//! resource usage from `wait4`.
//!
//! The driver runs one child at a time and blocks while it runs. It must not
//! poll: on the 2-vCPU box this was written on, a driver waking every 200 µs
//! to ask `wait4(WNOHANG)` slowed the child by 10 – 20 %. So the child's
//! stdout goes to a file (never a pipe the driver would have to drain), the
//! driver sleeps in `waitid` until the child exits, and the 120 s deadline is
//! kept by a watchdog thread that sleeps on a channel and only ever wakes to
//! kill. The reaped `rusage` gives peak RSS, CPU time and page faults for
//! exactly that child.

use std::fs::File;
use std::io;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout below is the 64-bit Linux one");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

impl Timeval {
    fn seconds(&self) -> f64 {
        self.sec as f64 + self.usec as f64 / 1e6
    }
}

/// `struct rusage` of 64-bit Linux: two `timeval`s and fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

/// `siginfo_t`: 128 bytes the kernel fills and this module never reads.
#[repr(C, align(8))]
struct SigInfo([u8; 128]);

const P_PID: i32 = 1;
const WEXITED: i32 = 4;
const WNOWAIT: i32 = 0x0100_0000;

extern "C" {
    fn waitid(idtype: i32, id: u32, info: *mut SigInfo, options: i32) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Sleep until `pid` has exited, leaving it a zombie: its pid stays reserved
/// (so a late `kill` cannot hit a stranger) until [`reap`] collects it.
fn wait_for_exit(pid: u32) -> io::Result<()> {
    let mut info = SigInfo([0; 128]);
    loop {
        // SAFETY: `info` is live, writable, and as large and as aligned as the
        // kernel's `siginfo_t`; `waitid` writes only through that pointer.
        if unsafe { waitid(P_PID, pid, &mut info, WEXITED | WNOWAIT) } == 0 {
            return Ok(());
        }
        let error = io::Error::last_os_error();
        if error.kind() != io::ErrorKind::Interrupted {
            return Err(error);
        }
    }
}

/// Reap the exited `pid`: its wait status and resource usage.
fn reap(pid: u32) -> io::Result<(i32, Rusage)> {
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `status` and `usage` are live, writable and laid out as the
    // kernel expects (`Rusage` is `repr(C)` with the 64-bit Linux layout,
    // enforced by the `compile_error!` above); `wait4` writes only through
    // these two pointers.
    if unsafe { wait4(pid as i32, &mut status, 0, &mut usage) } == pid as i32 {
        Ok((status, usage))
    } else {
        Err(io::Error::last_os_error())
    }
}

/// What one finished child cost.
#[derive(Clone, Debug)]
pub struct ChildRun {
    /// Spawn to exit, in seconds.
    pub wall_s: f64,
    /// Everything the child wrote to stdout.
    pub stdout: Vec<u8>,
    /// Exited by itself with code 0.
    pub success: bool,
    /// Killed by the driver at the deadline.
    pub timed_out: bool,
    pub max_rss_kib: u64,
    pub cpu_user_s: f64,
    pub cpu_sys_s: f64,
    pub minor_faults: u64,
}

/// Run `program args…` with stdout captured in `stdout_file`, kill it if it
/// is still running after `timeout`.
///
/// # Errors
/// Spawning, waiting or reading the capture file failed — the benchmark
/// cannot measure, which is different from the child failing.
pub fn run_child(
    program: &Path,
    args: &[String],
    stdout_file: &Path,
    timeout: Duration,
) -> io::Result<ChildRun> {
    let capture = File::create(stdout_file)?;
    let start = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(capture)
        .spawn()?;
    let pid = child.id();
    let (done, waiting) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || match waiting.recv_timeout(timeout) {
        // Not reaped yet (that happens after this thread is joined), so the
        // pid is still the child's own.
        Err(RecvTimeoutError::Timeout) => child.kill().is_ok(),
        _ => false,
    });
    let exited = wait_for_exit(pid);
    let wall_s = start.elapsed().as_secs_f64();
    let _ = done.send(());
    let timed_out = watchdog.join().expect("the watchdog does not panic");
    exited?;
    let (status, usage) = reap(pid)?;
    Ok(ChildRun {
        wall_s,
        stdout: std::fs::read(stdout_file)?,
        // A wait status of 0 is "exited normally with code 0".
        success: status == 0 && !timed_out,
        timed_out,
        max_rss_kib: usage.maxrss.max(0) as u64,
        cpu_user_s: usage.utime.seconds(),
        cpu_sys_s: usage.stime.seconds(),
        minor_faults: usage.minflt.max(0) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capture_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "ftclos_benchmark_child_{tag}_{}",
            std::process::id()
        ))
    }

    #[test]
    fn captures_stdout_exit_and_usage() {
        let path = capture_path("ok");
        let run = run_child(
            Path::new("sh"),
            &["-c".into(), "echo hello".into()],
            &path,
            Duration::from_secs(30),
        )
        .unwrap();
        assert!(run.success && !run.timed_out);
        assert_eq!(run.stdout, b"hello\n");
        assert!(run.wall_s > 0.0 && run.max_rss_kib > 0);
        let failed = run_child(
            Path::new("sh"),
            &["-c".into(), "exit 3".into()],
            &path,
            Duration::from_secs(30),
        )
        .unwrap();
        assert!(!failed.success && !failed.timed_out);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn kills_a_child_at_the_deadline() {
        let path = capture_path("slow");
        let run = run_child(
            Path::new("sleep"),
            &["30".into()],
            &path,
            Duration::from_millis(100),
        )
        .unwrap();
        assert!(run.timed_out && !run.success);
        assert!(run.wall_s < 10.0, "{}", run.wall_s);
        let _ = std::fs::remove_file(path);
    }
}
