//! Property tests for the wikitext table parser: rendering an arbitrary
//! table and parsing it back must round-trip.

use tind_model::rng::{cases, Rng};
use tind_wiki::{parse_tables, RawTable};

const ALNUM: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";

fn string_of(rng: &mut Rng, alphabet: &[u8], len: usize) -> String {
    (0..len).map(|_| alphabet[rng.range(0..alphabet.len())] as char).collect()
}

/// A safe cell string: starts alphanumeric (so it is non-empty after
/// trimming), no wikitext control characters, at most 15 characters.
fn cell(rng: &mut Rng) -> String {
    let tail_alphabet = [ALNUM, b" _.-"].concat();
    let tail_len = rng.range(0..=14usize);
    let s = string_of(rng, ALNUM, 1) + &string_of(rng, &tail_alphabet, tail_len);
    s.trim().to_string()
}

/// Headers and rows of a 1–4 column, 1–7 row table.
fn table(rng: &mut Rng) -> (Vec<String>, Vec<Vec<String>>) {
    let (width, height) = (rng.range(1..5usize), rng.range(1..8usize));
    let headers = (0..width).map(|_| cell(rng)).collect();
    let rows = (0..height).map(|_| (0..width).map(|_| cell(rng)).collect()).collect();
    (headers, rows)
}

fn render(headers: &[String], rows: &[Vec<String>], multi_cell_lines: bool) -> String {
    let mut text = String::from("{| class=\"wikitable\"\n");
    if multi_cell_lines {
        text.push_str(&format!("! {}\n", headers.join(" !! ")));
    } else {
        for h in headers {
            text.push_str(&format!("! {h}\n"));
        }
    }
    for row in rows {
        text.push_str("|-\n");
        if multi_cell_lines {
            text.push_str(&format!("| {}\n", row.join(" || ")));
        } else {
            for cell in row {
                text.push_str(&format!("| {cell}\n"));
            }
        }
    }
    text.push_str("|}\n");
    text
}

#[test]
fn render_parse_roundtrip() {
    cases("render_parse_roundtrip", 128, |rng| {
        let (headers, rows) = table(rng);
        let text = render(&headers, &rows, rng.bool());
        let parsed = parse_tables(&text);
        assert_eq!(parsed.len(), 1, "exactly one table in:\n{text}");
        let t: &RawTable = &parsed[0];
        assert_eq!(t.headers, headers);
        assert_eq!(t.rows, rows);
    });
}

#[test]
fn surrounding_prose_is_ignored() {
    cases("surrounding_prose_is_ignored", 128, |rng| {
        let (headers, rows) = table(rng);
        // Prose has no table markers, so it stays out of the grammar.
        let prose_len = rng.range(0..=80usize);
        let prose = string_of(rng, &[ALNUM, b" .,\n"].concat(), prose_len);
        let text = format!("{prose}\n{}\n{prose}", render(&headers, &rows, true));
        let parsed = parse_tables(&text);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].headers, headers);
    });
}

#[test]
fn concatenated_tables_parse_independently() {
    cases("concatenated_tables_parse_independently", 128, |rng| {
        let (h1, r1) = table(rng);
        let (h2, r2) = table(rng);
        let text = format!("{}\n{}", render(&h1, &r1, true), render(&h2, &r2, false));
        let parsed = parse_tables(&text);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].headers, h1);
        assert_eq!(parsed[1].headers, h2);
        assert_eq!(parsed[1].rows, r2);
    });
}
