"""Test-side parsing oracle: the tokenizer plus hand term parser that the
grouped term regex in LaurentPoly.from_string replaced, kept verbatim to
pin that every brace-free string still reads the same.
"""

import re

from hilbstrata.laurent import LaurentPoly


def from_string(text: str) -> LaurentPoly:
    """Parse the canonical rendering (both "2*t^3" and "2 t^3" accepted);
    every term after the first needs its sign, so "1 2" and "t2" raise."""
    s = text.strip().replace("{", "").replace("}", "")
    if not s:
        raise ValueError("empty polynomial string")
    tokens = _TERM_RE.findall(s)
    if "".join(tokens) != s or any(tok[0] not in "+-" for tok in tokens[1:]):
        raise ValueError(f"cannot parse polynomial string {text!r}")
    return LaurentPoly(_parse_term(tok) for tok in tokens)


# one monomial: optional sign, optional coefficient ("2*" or "2 "), optional t[^exp]
_TERM_RE = re.compile(r"[+-]?(?:\d+[* ]?)?t(?:\^-?\d+)?|[+-]?\d+")


def _parse_term(chunk: str) -> tuple[int, int]:
    neg = chunk.startswith("-")
    if neg or chunk.startswith("+"):
        chunk = chunk[1:]
    if "t" not in chunk:
        return (0, -int(chunk) if neg else int(chunk))
    head, _, tail = chunk.partition("t")
    head = head.rstrip("* ")
    coeff = int(head) if head else 1
    if tail == "":
        exp = 1
    elif tail.startswith("^"):
        exp = int(tail[1:])
    else:
        raise ValueError(f"cannot parse term {chunk!r}")
    return (exp, -coeff if neg else coeff)
