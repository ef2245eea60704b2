//! Stamps the provenance the benchmark prints: the git commit (when the
//! source is a git checkout), an FNV-64 fingerprint of the measured
//! source (so a copy without `.git` is still identified), and the rustc
//! that built it.

use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets it"));
    let root = manifest.join("..");
    let inputs = [
        root.join("crates"),
        root.join("Cargo.toml"),
        root.join("Cargo.lock"),
        manifest.join("src"),
        manifest.join("Cargo.toml"),
    ];
    let mut files = Vec::new();
    for input in &inputs {
        println!("cargo:rerun-if-changed={}", input.display());
        collect(input, &mut files);
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in &files {
        let rel = file.strip_prefix(&root).unwrap_or(file);
        let bytes = std::fs::read(file).unwrap_or_default();
        for b in rel.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    println!("cargo:rustc-env=PERFBENCH_SOURCE_FNV64={hash:016x}");

    // `--git-dir` pins the lookup to this source tree: a copy without
    // `.git` reports "none" rather than an enclosing repository's HEAD.
    let git = Command::new("git")
        .arg(format!("--git-dir={}", root.join(".git").display()))
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    println!(
        "cargo:rustc-env=PERFBENCH_GIT_COMMIT={}",
        git.unwrap_or_else(|| "none".into())
    );

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
}

/// Every file under `path` (or `path` itself), skipping build output.
fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
        return;
    }
    let Ok(entries) = std::fs::read_dir(path) else {
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.file_name().is_some_and(|n| n == "target") {
            continue;
        }
        collect(&p, out);
    }
}
