//! Host metadata recorded with every result, and the process's peak RSS.

use std::path::Path;

/// Logical CPUs available to the process.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Process high-water resident set size (`VmHWM`) in MiB, or `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The commit the benchmark was built from, read from `.git` in the
/// working directory; `"unknown"` in a source tree without one.
pub fn git_commit() -> String {
    fn read(path: &Path) -> Option<String> {
        Some(std::fs::read_to_string(path).ok()?.trim().to_string())
    }
    let git = Path::new(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => read(&git.join(reference))
            .or_else(|| {
                let packed = read(&git.join("packed-refs"))?;
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .unwrap_or_else(|| "unknown".to_string()),
    }
}

/// Host description as a JSON object.
pub fn json() -> String {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    format!(
        "{{\"cpus\": {}, \"os\": \"{}\", \"arch\": \"{}\", \"kernel\": \"{}\"}}",
        cpus(),
        std::env::consts::OS,
        std::env::consts::ARCH,
        kernel
    )
}
