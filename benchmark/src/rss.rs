//! Peak resident memory of the process that simulates, from the `VmHWM`
//! line of `/proc/<pid>/status`.
//!
//! In-process workloads read the harness's own; serve workloads read the
//! `gsi-serve` child's before shutting it down; the shard workload reads
//! the supervisor's and its workers' while they run ([`Family`]). Every
//! reading names the pid it came from, so no other child of the harness
//! (the `cargo build` of the binaries, for one) can leak into it.

/// The fields of a `/proc/<pid>/status` file the benchmark uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Status {
    /// The executable's name (`Name:`, truncated by the kernel to 15
    /// bytes).
    pub name: String,
    /// The parent's pid (`PPid:`).
    pub parent: u32,
    /// Peak resident set in KiB (`VmHWM:`). A zombie has none.
    pub vm_hwm_kib: Option<u64>,
}

pub fn parse_status(text: &str) -> Option<Status> {
    let field = |key: &str| {
        text.lines().find_map(|l| l.strip_prefix(key)?.strip_prefix(':')).map(str::trim)
    };
    let vm_hwm_kib = field("VmHWM").and_then(|rest| {
        let mut parts = rest.split_whitespace();
        let value: u64 = parts.next()?.parse().ok()?;
        (parts.next() == Some("kB")).then_some(value)
    });
    Some(Status {
        name: field("Name")?.to_string(),
        parent: field("PPid")?.parse().ok()?,
        vm_hwm_kib,
    })
}

fn read_status(pid: u32) -> Option<Status> {
    parse_status(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// Peak resident set of a live process in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let kib = read_status(pid)
        .and_then(|s| s.vm_hwm_kib)
        .ok_or_else(|| format!("/proc/{pid}/status has no VmHWM line"))?;
    Ok(kib as f64 / 1024.0)
}

/// Peak resident set of this process in MiB.
pub fn own_peak_rss_mb() -> Result<f64, String> {
    peak_rss_mb(std::process::id())
}

/// Restart this process's `VmHWM` from its current resident set, so that
/// the next reading is the peak since this call. Where the kernel refuses
/// (the file is Linux 4.0's), readings stay peaks since the process began.
pub fn restart_own_peak() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// A running process and its direct children of the same executable: the
/// shard supervisor and its worker processes. `VmHWM` only ever rises, so
/// the largest reading taken while the family runs is its peak up to the
/// last reading. A pid is read only while it runs the named executable:
/// a child that has not reached `exec` yet still carries its parent's
/// name and memory and is left alone.
pub struct Family {
    root: u32,
    name: String,
    /// Live members, the root first.
    members: Vec<u32>,
    /// Every pid a `VmHWM` was read from.
    read_from: Vec<u32>,
    /// The root has no known child, or a known child has gone (a worker
    /// the supervisor replaced): look through `/proc` at the next sample.
    look_for_children: bool,
    peak_kib: u64,
}

impl Family {
    /// The family of the process `root` once it runs the executable
    /// `name`.
    pub fn new(root: u32, name: &str) -> Family {
        Family {
            root,
            // The kernel keeps 15 bytes of the name.
            name: name.chars().take(15).collect(),
            members: vec![root],
            read_from: Vec::new(),
            look_for_children: true,
            peak_kib: 0,
        }
    }

    fn find_children(&mut self) {
        let Ok(entries) = std::fs::read_dir("/proc") else { return };
        for pid in entries
            .filter_map(Result::ok)
            .filter_map(|e| e.file_name().to_str().and_then(|name| name.parse::<u32>().ok()))
        {
            if !self.members.contains(&pid)
                && read_status(pid).is_some_and(|s| s.parent == self.root && s.name == self.name)
            {
                self.members.push(pid);
            }
        }
    }

    /// Read every member's `VmHWM` and keep the largest.
    pub fn sample(&mut self) {
        if self.look_for_children {
            self.find_children();
        }
        let known = self.members.len();
        let (root, name) = (self.root, &self.name);
        let (peak, read_from) = (&mut self.peak_kib, &mut self.read_from);
        self.members.retain(|&pid| match read_status(pid) {
            Some(s) if s.name == *name && (pid == root || s.parent == root) => {
                if let Some(kib) = s.vm_hwm_kib {
                    *peak = kib.max(*peak);
                    if !read_from.contains(&pid) {
                        read_from.push(pid);
                    }
                }
                true
            }
            _ => pid == root,
        });
        self.look_for_children = self.members.len() == 1 || self.members.len() < known;
    }

    /// Every pid a `VmHWM` was read from so far.
    pub fn read_from(&self) -> &[u32] {
        &self.read_from
    }

    /// Largest `VmHWM` of any member at any sample, in MiB. An error if
    /// the root was never seen running the named executable.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        if !self.read_from.contains(&self.root) {
            return Err(format!("no VmHWM was read from {} (pid {})", self.name, self.root));
        }
        Ok(self.peak_kib as f64 / 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::{Command, Stdio};

    #[test]
    fn name_parent_and_vm_hwm_are_parsed_from_a_status_file() {
        let status = "Name:\tserver\nPid:\t7\nPPid:\t3\nVmPeak:\t  123456 kB\n\
                      VmHWM:\t    9876 kB\nVmRSS:\t 5000 kB\n";
        assert_eq!(
            parse_status(status),
            Some(Status { name: "server".to_string(), parent: 3, vm_hwm_kib: Some(9876) })
        );
        let zombie = parse_status("Name:\tserver\nState:\tZ (zombie)\nPPid:\t3\n").unwrap();
        assert_eq!(zombie.vm_hwm_kib, None);
        let hwm = |line: &str| {
            parse_status(&format!("Name:\tx\nPPid:\t1\n{line}\n")).and_then(|s| s.vm_hwm_kib)
        };
        assert_eq!(hwm("VmHWM:\tlots kB"), None);
        assert_eq!(hwm("VmHWM:\t12 pages"), None);
        assert_eq!(hwm("VmHWM:\t12 kB"), Some(12));
        assert_eq!(parse_status("VmHWM:\t12 kB\n"), None);
    }

    #[test]
    fn this_process_has_a_peak() {
        assert!(own_peak_rss_mb().unwrap() > 0.0);
        // Restarting it may be refused, but never breaks the reading.
        restart_own_peak();
        assert!(own_peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn a_family_is_the_named_pid_and_its_children_of_that_name() {
        // A shell whose child is another shell waiting on the inherited
        // standard input; both end when the pipe closes.
        let mut outer = Command::new("sh")
            .args(["-c", "sh -c 'read line'; true"])
            .stdin(Stdio::piped())
            .spawn()
            .expect("sh is on every box this runs on");
        let mut family = Family::new(outer.id(), "sh");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while family.read_from().len() < 2 && std::time::Instant::now() < deadline {
            family.sample();
        }
        assert_eq!(family.read_from().len(), 2, "the inner shell was not found");
        assert!(family.read_from().contains(&outer.id()));
        assert!(family.peak_rss_mb().unwrap() > 0.0);
        // This test process is the outer shell's parent, not a member.
        assert!(!family.read_from().contains(&std::process::id()));
        // The same pid under another name is never read: a reading always
        // comes from the executable it claims to.
        let mut other = Family::new(outer.id(), "another-program");
        other.sample();
        assert!(other.read_from().is_empty() && other.peak_rss_mb().is_err());
        drop(outer.stdin.take());
        assert!(outer.wait().unwrap().success());
    }
}
