// Fixture: scanned under a virtual edgecut path. The lexer keeps patterns
// inside literals, comments and doc text from ever reaching the rule pass,
// #[cfg(test)] regions are skipped, and a trailing reasoned annotation
// covers its own line; only the reasonless annotation's scan may fire.
pub fn f() -> &'static str {
    // This comment mentions HashMap::new() and xs.contains(&up) harmlessly.
    let msg = "call HashSet::new() at your peril";
    let raw = r#"BTreeMap::new() .contains(&"nothing")"#;
    let _ = (msg, raw);
    "ok"
}

/// Doc text may cite `HashMap::new()` and `xs.contains(&up)` freely.
pub fn trailing(xs: &[u32; 3], up: u32) -> bool {
    xs.contains(&up) // lint: allow(hotpath-no-hashmap) — fixed three-element array
}

pub fn reasonless(xs: &[u32], up: u32) -> bool {
    // lint: allow(hotpath-no-hashmap)
    xs.contains(&up)
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_build_maps() {
        let m: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        assert!(!m.contains_key(&1) && ![1u32].contains(&2));
    }
}
