"""The master-pattern lexer against the character-loop lexer it replaced.

``_reference_tokenize`` is the earlier lexer, kept here as the oracle: the
new one must give the same tokens — kind, value, line, column — and the
same ``SqlSyntaxError`` text on every input but one declared divergence.
Digits are ASCII ``0-9``, as in T-SQL; the old lexer took any character
``str.isdigit()`` accepts, so ``'١٢'`` (Arabic-Indic digits) read as 12 and
``'²'`` crashed the parser with a ``ValueError``.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st
import pytest

from repro.errors import SqlSyntaxError
from repro.sql.lexer import KEYWORDS, shape, tokenize
from tests.sql.test_parser_fuzz import SOUP_TOKENS, VALID_STATEMENTS

_OPERATORS = ("<>", "!=", "<=", ">=", "=", "<", ">", "+", "-", "*", "/", "%")
_PUNCTUATION = "(),."


def _reference_tokenize(text):
    """The character-loop lexer, returning ``(kind, value, line, column)``."""
    tokens = []
    line, column = 1, 1
    index = 0
    length = len(text)
    while index < length:
        ch = text[index]
        if ch == "\n":
            line += 1
            column = 1
            index += 1
            continue
        if ch.isspace():
            index += 1
            column += 1
            continue
        if text.startswith("--", index):  # line comment
            while index < length and text[index] != "\n":
                index += 1
            continue
        start_column = column
        if ch == "'":
            value, consumed = _reference_string(text, index, line, start_column)
            tokens.append(("STRING", value, line, start_column))
            index += consumed
            column += consumed
            continue
        if ch.isdigit() or (ch == "." and index + 1 < length and text[index + 1].isdigit()):
            end = index
            seen_dot = False
            while end < length and (text[end].isdigit() or (text[end] == "." and not seen_dot)):
                if text[end] == ".":
                    seen_dot = True
                end += 1
            tokens.append(("NUMBER", text[index:end], line, start_column))
            column += end - index
            index = end
            continue
        if ch.isalpha() or ch == "_":
            end = index
            while end < length and (text[end].isalnum() or text[end] == "_"):
                end += 1
            word = text[index:end]
            kind = "KEYWORD" if word.upper() in KEYWORDS else "IDENT"
            tokens.append((kind, word, line, start_column))
            column += end - index
            index = end
            continue
        matched = False
        for op in _OPERATORS:
            if text.startswith(op, index):
                tokens.append(("OPERATOR", op, line, start_column))
                index += len(op)
                column += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in _PUNCTUATION:
            tokens.append(("PUNCT", ch, line, start_column))
            index += 1
            column += 1
            continue
        if ch == "?":
            tokens.append(("PARAM", "?", line, start_column))
            index += 1
            column += 1
            continue
        raise SqlSyntaxError(f"unexpected character {ch!r}", line, column)
    tokens.append(("END", "", line, column))
    return tokens


def _reference_string(text, start, line, column):
    index = start + 1
    chars = []
    while index < len(text):
        ch = text[index]
        if ch == "'":
            if text.startswith("''", index):
                chars.append("'")
                index += 2
                continue
            return "".join(chars), index - start + 1
        if ch == "\n":
            break
        chars.append(ch)
        index += 1
    raise SqlSyntaxError("unterminated string literal", line, column)


def _outcome(lex, text):
    try:
        return [tuple(t) if isinstance(t, tuple) else
                (t.kind, t.value, t.line, t.column) for t in lex(text)]
    except SqlSyntaxError as exc:
        return ("error", str(exc), exc.line, exc.column)


def _assert_same(text):
    assert _outcome(tokenize, text) == _outcome(_reference_tokenize, text), text


def _non_ascii_digit(text):
    return any(ch.isdigit() and not "0" <= ch <= "9" for ch in text)


class TestAgainstTheReferenceLexer:
    """Same tokens, positions and errors as the character loop."""

    @pytest.mark.parametrize("text", VALID_STATEMENTS + [
        "", "   ", "-- only a comment", "a -- trailing", "a\n-- c\n  b  ",
        "'a''", "'a'''", "''''", "'x\ny'", "1..2", "1.2.3", ".5.", "1a",
        "a1.b2", "x!=y<>z<=>=", "!", "ſelect", "_x ?", "a\r\n\tb\x0bc",
        "été = 'déjà'", "½x", "x½", " a",
    ])
    def test_fixed_inputs(self, text):
        _assert_same(text)

    @given(st.lists(st.sampled_from(
        [t for t in SOUP_TOKENS if not _non_ascii_digit(t)]
        + ["'", "--", "\n", "?", "."]), max_size=25), st.sampled_from(["", " "]))
    @settings(max_examples=300, deadline=None)
    def test_soup(self, parts, separator):
        _assert_same(separator.join(parts))

    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126)
                   | st.just("\n"), max_size=120))
    @settings(max_examples=500, deadline=None)
    def test_printable_ascii(self, text):
        _assert_same(text)

    @given(st.text(max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_any_text_without_non_ascii_digits(self, text):
        assume(not _non_ascii_digit(text))
        _assert_same(text)


class TestDigitsAreAscii:
    """The one divergence: a non-ASCII digit is not a digit."""

    def test_arabic_indic_digits_are_rejected(self):
        assert _reference_tokenize("SELECT '١٢', ١٢")[3][:2] == ("NUMBER", "١٢")
        with pytest.raises(SqlSyntaxError) as caught:
            tokenize("SELECT '١٢', ١٢")
        assert (caught.value.line, caught.value.column) == (1, 14)
        assert tokenize("SELECT '١٢'")[1].value == "١٢"  # in a string: text

    def test_superscript_digit_is_rejected(self):
        with pytest.raises(SqlSyntaxError, match="unexpected character"):
            tokenize("x = ²")


class TestShape:
    """The shape scan reads the lexer's literals and nothing else."""

    @pytest.mark.parametrize("text, expected, values", [
        ("SELECT * FROM t WHERE id = 5", "SELECT * FROM t WHERE id = \x01", [5]),
        ("SELECT * FROM t WHERE id = '5'", "SELECT * FROM t WHERE id = \x03", ["5"]),
        ("VALUES (1., .5, 007)", "VALUES (\x02, \x02, \x01)", [1, 0.5, 7]),
        ("a1 = 'it''s -- ?' -- 9 'x'", "a1 = \x03 -- 9 'x'", ["it's -- ?"]),
        ("COMMIT", "COMMIT", []),
    ])
    def test_literals_become_markers(self, text, expected, values):
        assert shape(text) == (expected, values)

    @given(st.lists(st.sampled_from(SOUP_TOKENS + ["'it''s'", "007", ".5",
                                                   "1.", "--", "\n", "a1"]),
                    max_size=25))
    @settings(max_examples=300, deadline=None)
    def test_shape_values_are_the_token_values(self, parts):
        text = " ".join(parts)
        try:
            tokens = tokenize(text)
        except SqlSyntaxError:
            return
        literals = [t.key for t in tokens if t.kind in ("NUMBER", "STRING")]
        assert shape(text)[1] == literals
