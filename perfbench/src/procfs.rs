//! Peak memory and CPU time of a process, read from `/proc`.

use std::io;

/// Which process to read: this one or another by pid.
#[derive(Debug, Clone, Copy)]
pub enum Pid {
    /// `/proc/self`.
    Current,
    /// `/proc/<pid>`.
    Other(u32),
}

fn path(pid: Pid, file: &str) -> String {
    match pid {
        Pid::Current => format!("/proc/self/{file}"),
        Pid::Other(p) => format!("/proc/{p}/{file}"),
    }
}

/// Peak resident set size (`VmHWM`) in bytes.
pub fn vm_hwm_bytes(pid: Pid) -> io::Result<u64> {
    parse_vm_hwm(&std::fs::read_to_string(path(pid, "status"))?)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM line"))
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// User and system CPU seconds consumed so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cpu {
    /// User-mode seconds.
    pub user: f64,
    /// Kernel-mode seconds.
    pub sys: f64,
}

impl Cpu {
    /// CPU spent between `earlier` and `self`.
    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            user: self.user - earlier.user,
            sys: self.sys - earlier.sys,
        }
    }

    /// User plus system seconds.
    pub fn total(self) -> f64 {
        self.user + self.sys
    }
}

/// `utime` and `stime` of the process, in seconds.
pub fn cpu(pid: Pid) -> io::Result<Cpu> {
    parse_stat(&std::fs::read_to_string(path(pid, "stat"))?, clock_ticks())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed stat"))
}

fn parse_stat(stat: &str, ticks: f64) -> Option<Cpu> {
    // The command name may hold spaces and parentheses; fields resume
    // after the last ')'. There, index 0 is field 3 (`state`), so
    // `utime` (field 14) is index 11 and `stime` (field 15) index 12.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let user: f64 = fields.next()?.parse().ok()?;
    let sys: f64 = fields.next()?.parse().ok()?;
    Some(Cpu {
        user: user / ticks,
        sys: sys / ticks,
    })
}

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

fn clock_ticks() -> f64 {
    // SAFETY: `sysconf` takes an integer and only reads system
    // configuration; it has no memory-safety preconditions.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_in_bytes() {
        let status = "Name:\tx\nVmPeak:\t 9000 kB\nVmHWM:\t    1234 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(1234 * 1024));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
    }

    #[test]
    fn parses_cpu_fields_after_a_tricky_command_name() {
        let stat = "42 (a) b (c) S 1 42 42 0 -1 4194560 100 0 0 0 250 75 0 0 20 0 1 0";
        let cpu = parse_stat(stat, 100.0).expect("parses");
        assert_eq!(
            cpu,
            Cpu {
                user: 2.5,
                sys: 0.75
            }
        );
    }

    #[test]
    fn reads_this_process() {
        assert!(vm_hwm_bytes(Pid::Current).expect("VmHWM") > 0);
        assert!(cpu(Pid::Current).expect("stat").total() >= 0.0);
    }
}
