//! Keeps a run on one CPU.
//!
//! A closed loop over loopback is a ping-pong between a client thread and a
//! server thread. Spread over two vCPUs, each side finds its CPU idle and
//! halted when its turn comes, and what the wake-up costs is the host's
//! business: on the recording machine the same hit reads 0.13 ms in one
//! minute and 0.30 ms in the next. On one CPU the hand-over is a context
//! switch, the CPU never idles inside a request, and the latency is the
//! program's own work.

use std::process::Command;

/// The highest CPU of a `Cpus_allowed_list` value such as `0-1` or `0,2-3`
/// (CPU 0 takes most of a guest's device interrupts).
fn last_cpu(list: &str) -> Option<usize> {
    list.trim()
        .rsplit(',')
        .next()?
        .rsplit('-')
        .next()?
        .parse()
        .ok()
}

/// Pins this process to the highest CPU it is allowed on and returns that
/// CPU. Call it before any thread is spawned: threads inherit the mask.
/// `None` when the mask cannot be read or `taskset` is not there to set it;
/// the run then goes on unpinned.
pub fn to_one_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu = last_cpu(list)?;
    let out = Command::new("taskset")
        .args(["-cp", &cpu.to_string(), &std::process::id().to_string()])
        .output()
        .ok()?;
    out.status.success().then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_cpu_of_a_list() {
        assert_eq!(last_cpu("\t0-1\n"), Some(1));
        assert_eq!(last_cpu("0"), Some(0));
        assert_eq!(last_cpu("0,2-3"), Some(3));
        assert_eq!(last_cpu("0-3,8"), Some(8));
        assert_eq!(last_cpu(""), None);
    }
}
