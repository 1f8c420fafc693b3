//! Property tests for the item parser's two total-function guarantees: it
//! never panics on arbitrary input, and [`tile`]'s item/gap segments
//! partition the file byte-exactly. Mirrors `lexer_prop.rs` one layer up:
//! the workspace model must be as unkillable as the lexer it sits on, because
//! the workspace walk feeds it every file verbatim — including malformed,
//! half-edited, or non-UTF-8 ones.

use kglink_lint::items::{parse_items, tile};
use kglink_lint::source::SourceFile;
use kglink_lint::workspace::Workspace;
use proptest::prelude::*;

fn tiles_exactly(src: &str) {
    let f = SourceFile::new("crates/x/src/a.rs".into(), src.into());
    let items = parse_items(&f);
    let segments = tile(&f, &items);
    let mut pos = 0usize;
    for s in &segments {
        assert_eq!(s.start, pos, "segments must be contiguous");
        assert!(s.end > s.start, "segments must be non-empty");
        pos = s.end;
    }
    assert_eq!(
        pos,
        src.len(),
        "segments must cover the file to the last byte"
    );
    for item in &items.fns {
        let (s, e) = item.byte_span;
        assert!(s <= e && e <= src.len(), "item spans stay in bounds");
        if let Some((bs, be)) = item.body {
            assert!(bs <= be, "body range is ordered");
            assert!(be <= f.code.len(), "body range stays in the token stream");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_and_tile(
        bytes in proptest::collection::vec(0u8..=255u8, 0..400),
    ) {
        tiles_exactly(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn item_syntax_soup_tiles(
        picks in proptest::collection::vec(0usize..16, 0..120),
    ) {
        // Dense in the tokens the item parser dispatches on: `fn` heads,
        // impl blocks, unbalanced braces, attributes, generics.
        const VOCAB: [&str; 16] = [
            "fn ", "impl ", "mod ", "use ", "self", "{", "}", "(", ")", ";",
            ":", "->", "<T>", "#[cfg(test)]", "f", "\n",
        ];
        let soup: String = picks.iter().map(|&i| VOCAB[i]).collect();
        tiles_exactly(&soup);
    }

    #[test]
    fn workspace_build_is_total(
        a in "[a-z{}();.:&= \n]{0,200}",
        b in "[a-z{}();.:&= \n]{0,200}",
    ) {
        // The whole model pipeline — items, call graph, summaries,
        // fixpoint — must absorb garbage without panicking.
        let ws = Workspace::from_sources(vec![
            ("crates/serve/src/a.rs", a.as_str()),
            ("crates/search/src/b.rs", b.as_str()),
        ]);
        assert_eq!(ws.fns.len(), ws.locals.len());
        assert_eq!(ws.fns.len(), ws.props.len());
    }
}
