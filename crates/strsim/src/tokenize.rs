//! Word and q-gram tokenizers.
//!
//! MatchCatcher tokenizes attribute values into **word-level tokens** for
//! its top-k joins (§4.2), and SIM blockers additionally use **character
//! q-grams** (e.g. `title_jac_3gram < 0.7` in Table 2). Both tokenizers
//! lowercase their input; the word tokenizer splits on any
//! non-alphanumeric character.

/// How a string is decomposed into tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tokenizer {
    /// Lowercased maximal alphanumeric runs ("Dave Smith-Jones" →
    /// `["dave", "smith", "jones"]`).
    Word,
    /// Lowercased character q-grams with `q−1` boundary pad characters
    /// (`#` prefix, `$` suffix), so "ab" with q = 3 yields
    /// `["##a", "#ab", "ab$", "b$$"]`.
    QGram(u8),
}

impl Tokenizer {
    /// Tokenizes `s` according to this tokenizer.
    pub fn tokens(&self, s: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each_token(s, &mut String::new(), |t| out.push(t.to_string()));
        out
    }

    /// Calls `f` with every token of `s`, in order and with multiplicity,
    /// exactly as [`Tokenizer::tokens`] would return them. Tokens are
    /// built in `buf` (cleared first, left holding scratch) and lent to
    /// `f`, so a caller that reuses `buf` tokenizes without allocating.
    ///
    /// ASCII chars take a byte-level branch (`is_ascii_alphanumeric`,
    /// `to_ascii_lowercase`), which agrees with the general char path on
    /// ASCII; every other char goes through `is_alphanumeric` /
    /// `to_lowercase`.
    pub fn for_each_token(&self, s: &str, buf: &mut String, f: impl FnMut(&str)) {
        match *self {
            Tokenizer::Word => for_each_word(s, buf, f),
            Tokenizer::QGram(q) => for_each_qgram(s, q as usize, buf, f),
        }
    }

    /// A short label used in blocker descriptions ("word", "3gram").
    pub fn label(&self) -> String {
        match self {
            Tokenizer::Word => "word".to_string(),
            Tokenizer::QGram(q) => format!("{q}gram"),
        }
    }
}

/// Splits `s` into lowercased alphanumeric word tokens.
///
/// Punctuation and whitespace both delimit: `"B. Lee, Austin"` →
/// `["b", "lee", "austin"]`. The output preserves multiplicity (a multiset)
/// and the original order of appearance.
pub fn word_tokens(s: &str) -> Vec<String> {
    Tokenizer::Word.tokens(s)
}

/// Lowercased, padded character q-grams of `s`.
///
/// The string is lowercased, runs of whitespace are collapsed to a single
/// space, then padded with `q−1` `#` characters in front and `$` characters
/// behind. Returns an empty vector for an effectively empty string or
/// `q == 0`.
pub fn qgram_tokens(s: &str, q: usize) -> Vec<String> {
    let mut out = Vec::new();
    for_each_qgram(s, q, &mut String::new(), |t| out.push(t.to_string()));
    out
}

/// The word scanner behind [`Tokenizer::for_each_token`]: one pass over
/// `s`, each lowercased alphanumeric run built in `buf`.
fn for_each_word(s: &str, buf: &mut String, mut f: impl FnMut(&str)) {
    buf.clear();
    for c in s.chars() {
        if c.is_ascii() {
            if c.is_ascii_alphanumeric() {
                buf.push(c.to_ascii_lowercase());
                continue;
            }
        } else if c.is_alphanumeric() {
            buf.extend(c.to_lowercase());
            continue;
        }
        if !buf.is_empty() {
            f(buf);
            buf.clear();
        }
    }
    if !buf.is_empty() {
        f(buf);
    }
}

/// The q-gram scanner behind [`Tokenizer::for_each_token`]: builds the
/// padded, lowercased, whitespace-collapsed string in `buf` once, then
/// lends each window of `q` chars.
fn for_each_qgram(s: &str, q: usize, buf: &mut String, mut f: impl FnMut(&str)) {
    buf.clear();
    if q == 0 {
        return;
    }
    buf.extend(std::iter::repeat_n('#', q - 1));
    let mut last_space = true;
    for c in s.chars() {
        if c.is_whitespace() {
            if !last_space {
                buf.push(' ');
                last_space = true;
            }
        } else {
            if c.is_ascii() {
                buf.push(c.to_ascii_lowercase());
            } else {
                buf.extend(c.to_lowercase());
            }
            last_space = false;
        }
    }
    while buf.ends_with(' ') {
        buf.pop();
    }
    if buf.len() == q - 1 {
        return; // nothing but padding ('#' is one byte)
    }
    buf.extend(std::iter::repeat_n('$', q - 1));
    // Window `i` spans chars `i .. i + q`: pair each char's start with
    // the start of the char `q` places later (or the end of the buffer).
    let starts = buf.char_indices().map(|(i, _)| i);
    let ends = buf
        .char_indices()
        .map(|(i, _)| i)
        .chain(std::iter::once(buf.len()))
        .skip(q);
    for (lo, hi) in starts.zip(ends) {
        f(&buf[lo..hi]);
    }
}

/// The last word token of a string, if any — the `lastword(·)` helper used
/// by the paper's running example (`lastword(a.Name) = lastword(b.Name)`).
pub fn last_word(s: &str) -> Option<String> {
    word_tokens(s).pop()
}

/// The first word token of a string, if any.
pub fn first_word(s: &str) -> Option<String> {
    word_tokens(s).into_iter().next()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_split_on_punctuation_and_space() {
        assert_eq!(
            word_tokens("Dave  Smith-Jones, Jr."),
            vec!["dave", "smith", "jones", "jr"]
        );
    }

    #[test]
    fn words_preserve_multiplicity() {
        assert_eq!(word_tokens("la la land"), vec!["la", "la", "land"]);
    }

    #[test]
    fn words_of_empty_string() {
        assert!(word_tokens("").is_empty());
        assert!(word_tokens(" .,- ").is_empty());
    }

    #[test]
    fn qgrams_padded() {
        assert_eq!(qgram_tokens("ab", 3), vec!["##a", "#ab", "ab$", "b$$"]);
    }

    #[test]
    fn qgrams_lowercase_and_collapse_whitespace() {
        assert_eq!(qgram_tokens("A  B", 2), qgram_tokens("a b", 2));
    }

    #[test]
    fn qgrams_empty_input() {
        assert!(qgram_tokens("", 3).is_empty());
        assert!(qgram_tokens("   ", 3).is_empty());
        assert!(qgram_tokens("ab", 0).is_empty());
    }

    #[test]
    fn qgram_count_formula() {
        // |s| + q - 1 grams for a string with no internal whitespace.
        assert_eq!(qgram_tokens("abcd", 3).len(), 4 + 3 - 1);
    }

    #[test]
    fn last_and_first_word() {
        assert_eq!(last_word("Joe Welson"), Some("welson".into()));
        assert_eq!(first_word("Joe Welson"), Some("joe".into()));
        assert_eq!(last_word("  "), None);
    }

    #[test]
    fn tokenizer_dispatch_and_labels() {
        assert_eq!(Tokenizer::Word.tokens("A b"), vec!["a", "b"]);
        assert_eq!(Tokenizer::QGram(3).tokens("ab").len(), 4);
        assert_eq!(Tokenizer::Word.label(), "word");
        assert_eq!(Tokenizer::QGram(3).label(), "3gram");
    }

    /// The word tokenizer as it was before the visitor: one `String`
    /// grown char by char per token (the reference the visitor must
    /// reproduce).
    fn reference_word_tokens(s: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut cur = String::new();
        for c in s.chars() {
            if c.is_alphanumeric() {
                for lc in c.to_lowercase() {
                    cur.push(lc);
                }
            } else if !cur.is_empty() {
                out.push(std::mem::take(&mut cur));
            }
        }
        if !cur.is_empty() {
            out.push(cur);
        }
        out
    }

    /// The q-gram tokenizer as it was before the visitor: a padded
    /// `Vec<char>` and one collected `String` per window.
    fn reference_qgram_tokens(s: &str, q: usize) -> Vec<String> {
        if q == 0 {
            return Vec::new();
        }
        let mut chars: Vec<char> = Vec::with_capacity(s.len() + 2 * (q - 1));
        chars.extend(std::iter::repeat_n('#', q - 1));
        let mut last_space = true;
        for c in s.chars() {
            if c.is_whitespace() {
                if !last_space {
                    chars.push(' ');
                    last_space = true;
                }
            } else {
                for lc in c.to_lowercase() {
                    chars.push(lc);
                }
                last_space = false;
            }
        }
        while chars.last() == Some(&' ') {
            chars.pop();
        }
        if chars.len() == q - 1 {
            return Vec::new();
        }
        chars.extend(std::iter::repeat_n('$', q - 1));
        chars.windows(q).map(|w| w.iter().collect()).collect()
    }

    /// Random strings over an alphabet that exercises both scanner
    /// branches: ASCII letters in both cases, digits, punctuation runs,
    /// ASCII whitespace (vertical tab included), and non-ASCII chars
    /// whose lowercase form is longer ('İ'), context-dependent ('Σ'),
    /// titlecase ('ǅ'), unchanged ('ß'), numeric ('٣'), combining
    /// (U+0301) or whitespace (U+00A0).
    fn random_strings(n: usize) -> Vec<String> {
        const ALPHABET: &[char] = &[
            'a', 'B', 'z', 'Q', 'e', 'x', '0', '7', '9', ' ', ' ', '\t', '\n', '\x0b', '-', '.',
            ',', '#', '$', '\'', 'İ', 'ß', 'Σ', 'σ', 'ǅ', '٣', '\u{0301}', '\u{00a0}', 'é', 'Ä',
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..n)
            .map(|_| {
                let len = (next() % 24) as usize;
                (0..len)
                    .map(|_| ALPHABET[(next() % ALPHABET.len() as u64) as usize])
                    .collect()
            })
            .collect()
    }

    #[test]
    fn visitor_equals_reference_tokenizers_on_random_strings() {
        let mut buf = String::new();
        let mut strings = random_strings(2000);
        strings.extend(
            ["İstanbul ΣΟΦΙΑΣ", "ǅemal  straße", "٣٤ a\u{0301}b\u{00a0}c"].map(String::from),
        );
        for s in &strings {
            let mut words = Vec::new();
            Tokenizer::Word.for_each_token(s, &mut buf, |t| words.push(t.to_string()));
            assert_eq!(words, reference_word_tokens(s), "words of {s:?}");
            assert_eq!(word_tokens(s), words);
            for q in 0..=4u8 {
                let mut grams = Vec::new();
                Tokenizer::QGram(q).for_each_token(s, &mut buf, |t| grams.push(t.to_string()));
                let want = reference_qgram_tokens(s, q as usize);
                assert_eq!(grams, want, "{q}-grams of {s:?}");
                assert_eq!(qgram_tokens(s, q as usize), want);
            }
        }
    }

    #[test]
    fn unicode_words_lowercase() {
        assert_eq!(word_tokens("Ärzte ÖL"), vec!["ärzte", "öl"]);
    }
}
