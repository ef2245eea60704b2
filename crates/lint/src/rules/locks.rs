//! `lock-blocking` and `lock-cycle`: the no-blocking-while-locked
//! discipline, statically.
//!
//! The exact PR 8 bug class — a reply path that spin-slept holding a
//! connection lock — motivates the first half: while a lock guard is
//! live (a `let` binding of `.lock()` / empty-arg `.read()` /
//! `.write()`, or such a call chained inside one statement), no
//! blocking call (`send`/`recv`/`write_all`/`sleep`/`wait`/…) may
//! run. Guards end at `drop(guard)`, at the end of their scope, or —
//! for unnamed temporaries — at the end of their statement.
//!
//! The second half records every *nested* acquisition (`B` acquired
//! while `A` is held) as an edge `A -> B` keyed by the receiver path,
//! crate-qualified. After the whole workspace is scanned, the analyzer
//! runs SCC cycle detection over the union graph: any strongly
//! connected component is an ordering violation that could deadlock,
//! reported with both acquisition sites named.

use crate::diag::{Diagnostic, Rule};
use crate::lexer::TokenKind;
use crate::source::RustFile;

/// Methods that acquire a guard. `read`/`write` only count with empty
/// argument lists — `RwLock::read()` takes none, while `io::Read::read`
/// and `io::Write::write` always take a buffer.
const ACQUIRE: &[&str] = &["lock", "read", "write"];

/// Calls that can block the thread.
const BLOCKING: &[&str] = &[
    "send",
    "recv",
    "recv_timeout",
    "write_all",
    "flush",
    "wait",
    "wait_timeout",
    "wait_while",
    "join",
    "sleep",
    "accept",
    "connect",
    "read_exact",
    "read_to_end",
    "read_line",
];

/// This workspace's own blocking wrappers, called as free functions
/// (`write_frame(&mut *w, ..)`, the client's `read_socket(&stream, ..)`
/// read into its reassembly buffer), which a method-only list would
/// see straight through.
const BLOCKING_WRAPPERS: &[&str] = &["write_frame", "read_frame", "read_socket"];

/// One live guard.
#[derive(Debug)]
struct Guard {
    /// The binding name, when the acquisition was `let`-bound.
    name: Option<String>,
    /// Receiver path of the lock (`self.inner.writer`), or `<expr>`.
    lock_path: String,
    /// Line of the acquisition.
    line: u32,
    /// Brace depth the guard lives at.
    depth: i32,
    /// Unnamed temporary: dies at the end of its statement.
    temp: bool,
}

/// What one file contributes: findings plus lock-order edges
/// (`from_path`, `to_path`, `site`).
#[derive(Debug, Default)]
pub struct LockScan {
    /// `lock-blocking` findings.
    pub diags: Vec<Diagnostic>,
    /// Nested-acquisition edges for the workspace-wide order graph.
    pub edges: Vec<(String, String, String)>,
}

/// Scans one file. `crate_name` qualifies lock identities so paths
/// that happen to collide across crates do not alias in the graph.
pub fn check(file: &RustFile, crate_name: &str) -> LockScan {
    let mut scan = LockScan::default();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    // A `let` whose initializer we are still inside: (name, depth).
    let mut pending_let: Option<(String, i32)> = None;
    let n = file.tokens.len();
    for i in 0..n {
        if file.is_test(i) {
            continue;
        }
        let t = &file.tokens[i];
        match t.kind {
            TokenKind::Punct if t.text == "{" => depth += 1,
            TokenKind::Punct if t.text == "}" => {
                depth -= 1;
                guards.retain(|g| g.depth <= depth);
                if pending_let.as_ref().is_some_and(|(_, d)| *d > depth) {
                    pending_let = None;
                }
            }
            TokenKind::Punct if t.text == ";" => {
                if pending_let.as_ref().is_some_and(|(_, d)| *d == depth) {
                    pending_let = None;
                }
                guards.retain(|g| !(g.temp && g.depth == depth));
            }
            TokenKind::Ident if t.text == "let" => {
                // `let x = ...` / `let mut x = ...` / `let Ok(x) = ...`
                let mut j = i + 1;
                while file.tok(j).is_some_and(|t| t.is_ident("mut")) {
                    j += 1;
                }
                let name = match file.tok(j) {
                    Some(t)
                        if matches!(t.text.as_str(), "Ok" | "Some" | "Err")
                            && file.tok(j + 1).is_some_and(|p| p.is_punct('(')) =>
                    {
                        file.tok(j + 2).map(|t| t.text.clone())
                    }
                    Some(t) if t.kind == TokenKind::Ident => Some(t.text.clone()),
                    _ => None,
                };
                if let Some(name) = name {
                    pending_let = Some((name, depth));
                }
            }
            TokenKind::Ident
                if t.text == "drop"
                    && file.tok(i + 1).is_some_and(|t| t.is_punct('('))
                    && file.tok(i + 3).is_some_and(|t| t.is_punct(')')) =>
            {
                if let Some(victim) = file.tok(i + 2) {
                    let victim = victim.text.clone();
                    guards.retain(|g| g.name.as_deref() != Some(victim.as_str()));
                }
            }
            TokenKind::Ident
                if ACQUIRE.contains(&t.text.as_str())
                    && i > 0
                    && file.tokens[i - 1].is_punct('.')
                    && file.tok(i + 1).is_some_and(|t| t.is_punct('('))
                    && file.tok(i + 2).is_some_and(|t| t.is_punct(')')) =>
            {
                let (lock_path, recv_start) = receiver_path(file, i - 1);
                // Nested acquisition: edge from the innermost live guard.
                if let Some(holder) = guards.last() {
                    let from = &holder.lock_path;
                    if from != "<expr>" && lock_path != "<expr>" {
                        scan.edges.push((
                            format!("{crate_name}::{from}"),
                            format!("{crate_name}::{lock_path}"),
                            format!("{}:{}", file.rel, t.line),
                        ));
                    }
                }
                // A `let` binding only holds the guard when the guard
                // itself is what gets bound: `let v = *m.lock()` binds
                // a deref copy and `let n = m.lock().len()` binds a
                // chained result — in both, the guard is a temporary
                // that dies at the end of the statement.
                let derefed = recv_start > 0
                    && file.tokens[recv_start - 1].kind == TokenKind::Punct
                    && file.tokens[recv_start - 1].text == "*";
                // `.expect("...")` / `.unwrap()` unwrap the poison
                // `LockResult` but still yield the guard; skip them
                // before judging whether the chain moves past it.
                let mut after = i + 3;
                while file.tok(after).is_some_and(|t| t.is_punct('.'))
                    && file
                        .tok(after + 1)
                        .is_some_and(|t| t.is_ident("expect") || t.is_ident("unwrap"))
                    && file.tok(after + 2).is_some_and(|t| t.is_punct('('))
                {
                    let mut parens = 1;
                    after += 3;
                    while parens > 0 {
                        match file.tok(after) {
                            Some(t) if t.is_punct('(') => parens += 1,
                            Some(t) if t.is_punct(')') => parens -= 1,
                            Some(_) => {}
                            None => break,
                        }
                        after += 1;
                    }
                }
                let chained = file.tok(after).is_some_and(|t| t.is_punct('.'));
                let (name, temp) = match &pending_let {
                    Some((name, _)) if !derefed && !chained => (Some(name.clone()), false),
                    _ => (None, true),
                };
                guards.push(Guard {
                    name,
                    lock_path,
                    line: t.line,
                    depth,
                    temp,
                });
            }
            TokenKind::Ident
                if file.tok(i + 1).is_some_and(|t| t.is_punct('('))
                    && ((BLOCKING.contains(&t.text.as_str())
                        && i > 0
                        && (file.tokens[i - 1].is_punct('.')
                            || file.tokens[i - 1].is_punct(':')))
                        || (BLOCKING_WRAPPERS.contains(&t.text.as_str())
                            && (i == 0 || !file.tokens[i - 1].is_punct('.')))) =>
            {
                if let Some(g) = guards.first() {
                    let method = i > 0 && file.tokens[i - 1].is_punct('.');
                    scan.diags.push(Diagnostic {
                        file: file.rel.clone(),
                        line: t.line,
                        rule: Rule::LockBlocking,
                        message: format!(
                            "blocking call `{}{}()` while the `{}` guard (line {}) is live",
                            if method { "." } else { "" },
                            t.text,
                            g.lock_path,
                            g.line
                        ),
                        hint: "copy what you need out of the guard, drop it, then block".into(),
                    });
                }
            }
            _ => {}
        }
    }
    scan
}

/// Walks backwards from the `.` of `<recv>.lock()` collecting the
/// receiver path (`self.state.conns`) and the index of its first
/// token. Returns `<expr>` when the receiver is not a plain field
/// path (calls, indexing, casts).
fn receiver_path(file: &RustFile, dot: usize) -> (String, usize) {
    let mut parts: Vec<String> = Vec::new();
    let mut j = dot; // points at the `.` before the method name
    loop {
        if j == 0 {
            break;
        }
        let prev = &file.tokens[j - 1];
        match prev.kind {
            TokenKind::Ident => {
                parts.push(prev.text.clone());
                j -= 1;
                // Keep going only through `.` / `::` joiners.
                if j >= 1 && file.tokens[j - 1].is_punct('.') {
                    j -= 1;
                    continue;
                }
                if j >= 2 && file.tokens[j - 1].is_punct(':') && file.tokens[j - 2].is_punct(':') {
                    parts.push("::".into());
                    j -= 2;
                    continue;
                }
                break;
            }
            _ => {
                // `foo()[0].lock()` etc: not a nameable lock path.
                if parts.is_empty() {
                    return ("<expr>".into(), dot);
                }
                break;
            }
        }
    }
    if parts.is_empty() {
        return ("<expr>".into(), dot);
    }
    parts.reverse();
    let start = j;
    let mut out = String::new();
    for p in parts {
        if p == "::" {
            out.push_str("::");
        } else {
            if !out.is_empty() && !out.ends_with("::") {
                out.push('.');
            }
            out.push_str(&p);
        }
    }
    (out, start)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> LockScan {
        check(&RustFile::parse("crates/x/src/lib.rs", src), "x")
    }

    #[test]
    fn guard_live_across_send_fires() {
        let s = run("fn f(&self) { let g = self.state.lock(); self.tx.send(1); }");
        assert_eq!(s.diags.len(), 1);
        assert!(s.diags[0].message.contains("self.state"));
    }

    #[test]
    fn drop_and_scope_end_the_guard() {
        let s = run("fn f(&self) { let g = self.state.lock(); drop(g); self.tx.send(1); }");
        assert!(s.diags.is_empty(), "{:?}", s.diags);
        let s = run("fn f(&self) { { let g = self.state.lock(); } self.tx.send(1); }");
        assert!(s.diags.is_empty(), "{:?}", s.diags);
    }

    #[test]
    fn chained_temporary_counts_within_its_statement() {
        let s = run("fn f(&self) { self.conn.lock().write_all(buf); }");
        assert_eq!(s.diags.len(), 1);
        // ...but not past the semicolon.
        let s = run("fn f(&self) { self.conn.lock().push(1); self.tx.send(1); }");
        assert!(s.diags.is_empty(), "{:?}", s.diags);
    }

    #[test]
    fn nested_acquisitions_become_edges() {
        let s = run("fn f(&self) { let a = self.a.lock(); let b = self.b.lock(); }");
        assert_eq!(s.edges.len(), 1);
        assert_eq!(s.edges[0].0, "x::self.a");
        assert_eq!(s.edges[0].1, "x::self.b");
    }

    #[test]
    fn deref_copy_and_chained_bindings_are_not_guards() {
        // `let addr = *self.upstream.lock();` copies out; the guard
        // is a temporary dying at the semicolon.
        let s = run("fn f(&self) { let addr = *self.upstream.lock(); self.tx.send(addr); }");
        assert!(s.diags.is_empty(), "{:?}", s.diags);
        // Same for a chained call: `let n = self.map.lock().len();`.
        let s = run("fn f(&self) { let n = self.map.lock().len(); self.tx.send(n); }");
        assert!(s.diags.is_empty(), "{:?}", s.diags);
        // But blocking *within* the statement still counts.
        let s = run("fn f(&self) { let r = self.conn.lock().write_all(buf); }");
        assert_eq!(s.diags.len(), 1);
    }

    #[test]
    fn expect_unwrap_adapters_still_yield_the_guard() {
        // std Mutex idiom: `.lock().expect("...")` binds the guard.
        let s = run(
            "fn f(&self) { let g = self.state.lock().expect(\"state lock\"); self.tx.send(1); }",
        );
        assert_eq!(s.diags.len(), 1);
        // ...while chaining *past* the adapter binds a copied value.
        let s = run(
            "fn f(&self) { let v = self.state.lock().expect(\"state lock\").take(); self.tx.send(1); }",
        );
        assert!(s.diags.is_empty(), "{:?}", s.diags);
    }

    #[test]
    fn io_read_write_with_args_are_not_acquisitions() {
        let s = run("fn f(&self) { sock.write(buf); sock.read(&mut buf); }");
        assert!(s.edges.is_empty());
        assert!(s.diags.is_empty());
    }

    #[test]
    fn blocking_wrapper_free_functions_count() {
        let s = run("fn f(&self) { let mut w = self.writer.lock(); write_frame(&mut *w, c, b); }");
        assert_eq!(s.diags.len(), 1);
        // ...but a same-named method on some other type does not.
        let s =
            run("fn f(&self) { let mut w = self.writer.lock(); } fn g(x: X) { x.write_frame(b); }");
        assert!(s.diags.is_empty(), "{:?}", s.diags);
    }

    #[test]
    fn rwlock_read_counts() {
        let s = run("fn f(&self) { let g = self.map.read(); self.tx.send(1); }");
        assert_eq!(s.diags.len(), 1);
    }
}
