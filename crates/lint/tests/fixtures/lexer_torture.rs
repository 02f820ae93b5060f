//! Lexer torture fixture: every construct below would trip a
//! text-matching scanner, and none of it is real code the rules should
//! see. A correct lint run reports NOTHING for this file.

/* Nested block comments: /* a.partial_cmp(b) inside, still a comment:
   println!("x"); rng.stream("dup"); */ Arc<SimRng>; */

pub fn raw_strings() -> (&'static str, &'static [u8]) {
    // Raw string: the rule triggers are data, not code.
    let doc = r#"call a.partial_cmp(b) or println!("x"), then "quote" it"#;
    let bytes = b"Mutex<SimRng> is just bytes here";
    let _ = doc;
    (r"also \ no escapes", bytes)
}

pub fn lifetimes_vs_chars<'a>(s: &'a str) -> (char, char, &'a str) {
    // 'a is a lifetime; 'a' and '\'' are chars. A confused lexer that
    // treats 'a as an unterminated char literal would swallow the rest
    // of the line, including real tokens.
    let x: char = 'a';
    let quote = '\'';
    (x, quote, s)
}

pub fn suppression_in_string() -> &'static str {
    // The annotation text lives inside a string literal: it must NOT
    // suppress anything (and must not register as a suppression).
    "// hetlint: allow(r6) — not a real annotation"
}

pub fn numbers() -> f64 {
    let hex = 0xFF_u64;
    let range: u64 = (0..10).sum();
    let sci = 1.5e-3_f64;
    let tuple = (1.0_f64, 2.0_f64);
    hex as f64 + range as f64 + sci + tuple.0 + tuple.1
}
