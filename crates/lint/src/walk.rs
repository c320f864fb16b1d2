//! Deterministic workspace traversal.
//!
//! `std::fs::read_dir` order is filesystem-dependent; the walker sorts
//! every directory's entries by name so the scan order — and therefore the
//! report — is identical on every machine. It never follows a symlink
//! into a directory: a link such as `src/up -> ..` would otherwise make
//! the tree cyclic and list its files once per level until the OS gives up
//! resolving the path.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories never descended into.
const SKIP_DIRS: [&str; 3] = [".git", "target", "node_modules"];

/// Recursively lists all files under `root`, sorted, as
/// workspace-relative `/`-separated paths.
pub fn walk(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    walk_dir(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk_dir(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    // `DirEntry::file_type` does not follow symlinks; `Path::is_dir` does.
    let mut entries: Vec<(PathBuf, fs::FileType)> = fs::read_dir(dir)?
        .map(|e| e.and_then(|e| Ok((e.path(), e.file_type()?))))
        .collect::<io::Result<_>>()?;
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    for (path, file_type) in entries {
        if file_type.is_dir() {
            let name = path.file_name().unwrap_or_default();
            if SKIP_DIRS.iter().any(|skip| name == *skip) {
                continue;
            }
            walk_dir(root, &path, out)?;
        } else if file_type.is_symlink() && path.is_dir() {
            // A symlink to a directory: never descended into.
            continue;
        } else if let Ok(rel) = path.strip_prefix(root) {
            let rel: Vec<String> = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect();
            out.push(rel.join("/"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_is_sorted_and_relative() {
        let dir = std::env::temp_dir().join(format!("margins-lint-walk-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("b/inner")).unwrap();
        fs::create_dir_all(dir.join(".git")).unwrap();
        fs::write(dir.join("b/inner/z.rs"), "").unwrap();
        fs::write(dir.join("a.rs"), "").unwrap();
        fs::write(dir.join(".git/ignored"), "").unwrap();
        let files = walk(&dir).unwrap();
        assert_eq!(files, vec!["a.rs".to_owned(), "b/inner/z.rs".to_owned()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn directory_symlinks_are_not_followed() {
        use std::os::unix::fs::symlink;
        let dir = std::env::temp_dir().join(format!("margins-lint-loop-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("crates/sim/src")).unwrap();
        let src = dir.join("crates/sim/src");
        fs::write(
            src.join("lib.rs"),
            "pub fn f() { let _r = thread_rng(); }\n",
        )
        .unwrap();
        fs::write(src.join("notes.txt"), "").unwrap();
        symlink(".", src.join("loop")).unwrap();
        symlink("notes.txt", src.join("link.txt")).unwrap();

        let files = walk(&dir).unwrap();
        assert_eq!(
            files,
            vec![
                "crates/sim/src/lib.rs".to_owned(),
                "crates/sim/src/link.txt".to_owned(),
                "crates/sim/src/notes.txt".to_owned(),
            ],
            "a directory symlink is skipped; a file symlink is still listed"
        );
        let report = crate::lint_workspace(&dir).unwrap();
        let rng: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.rule == crate::Rule::UnseededRng)
            .collect();
        assert_eq!(rng.len(), 1, "{:?}", report.findings);
        assert_eq!(rng[0].file, "crates/sim/src/lib.rs");
        fs::remove_dir_all(&dir).unwrap();
    }
}
