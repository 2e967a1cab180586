"""Field tables for JSON input, and the one walker that reads them.

check(value, rule, at, roles) returns value with every default filled in, or
raises FieldError naming the JSON path of the first value that breaks its
rule. It never changes value, and copies nothing it does not fill: it
returns value itself unless something inside it changes (a default is
filled in, or a rule returns another object), and then copies only each
object and list on the way to that change. A filled-in object or list
default is a copy too. A caller that changes what check returns copies it
first. A rule is one of:

* a table, {name: Field(rule, default)}: a JSON object. A field that is left
  out or null takes its default, and a field without one is required. A key
  the table does not name is refused as an unknown field, before any named
  field is checked, so a table names every key it admits.
* [rule]: a JSON list whose items each follow rule.
* a row, (shape, Field, ...): a JSON list with one item per Field, read by
  position. Trailing items that have a default may be left out and take it;
  shape shows the row in a fault, as in "[a, b, start_s, end_s]".
* str, int, bool, dict or list: a JSON value of exactly that type, so that
  an int is never a bool.
* any other callable, called as rule(value, at, roles). It returns the value
  or raises fault(at, problem). natural, positive, device, one_of, has_role,
  hex_of, base64_text, predicate, tagged, builds and clock make such rules;
  roles maps each declared device to its role, or whatever else a caller
  names.

at is the JSON path as a tuple of keys and list positions. It is rendered
only for a fault, so a check that passes builds no path string.
"""

import base64
import itertools
import re

from .errors import ConfigurationError, FieldError

REQUIRED = object()     # the default of a field that must be given
_KINDS = {str: "a string", int: "an integer", bool: "a boolean", dict: "an object", list: "a list"}
SHOWN_CHARS = 100       # the longest repr a message shows whole


def shown(value) -> str:
    """value's repr for a message: whole up to SHOWN_CHARS characters, and
    otherwise cut there and marked with its full length, so that a message
    stays short however large the value it names."""
    text = repr(value)
    if len(text) <= SHOWN_CHARS:
        return text
    return f"{text[:SHOWN_CHARS]}... ({len(text)} characters)"


def Field(rule, default=REQUIRED) -> tuple:
    return rule, default


def path(at: tuple) -> str:
    return "".join(f"[{k}]" if type(k) is int else f".{k}" for k in at).lstrip(".") or "the input"


def fault(at: tuple, problem: str) -> FieldError:
    return FieldError(f"{path(at)}: {problem}")


def check(value, rule, at: tuple = (), roles: dict | None = None):
    kind = type(rule)
    want = rule if kind is type else kind if kind is dict or kind is list else None
    if want is not None and type(value) is not want:
        raise fault(at, f"expected {_KINDS[want]}, got {shown(value)}")
    if kind is dict:
        for name in value:
            if name not in rule:
                raise fault((*at, name), "unknown field")
        out = value
        for name, (sub, default) in rule.items():
            if (item := value.get(name)) is not None:
                # a value of exactly the type its rule names is what check would return
                if type(item) is sub or (got := check(item, sub, (*at, name), roles)) is item:
                    continue
            elif default is REQUIRED:
                raise FieldError(f"{path(at)} is missing the {name!r} field")
            elif type(default) is dict or type(default) is list:
                # walked to fill in the defaults inside it, and copied, so that no
                # caller holds the table's own
                if (got := check(default, sub, (*at, name), roles)) is default:
                    got = default.copy()
            else:
                got = default
            if out is value:
                out = dict(value)
            out[name] = got
        return out
    if kind is list:
        return _items(value, itertools.repeat(rule[0]), at, roles)
    if kind is tuple:
        n, fields = len(value) if type(value) is list else -1, rule[1:]
        if not 0 <= n <= len(fields) or n < len(fields) and fields[n][1] is REQUIRED:
            raise fault(at, f"expected {rule[0]}")
        out = _items(value, (sub for sub, _ in fields), at, roles)
        return out if n == len(fields) else out + [default for _, default in fields[n:]]
    return value if kind is type else rule(value, at, roles)


def _items(value: list, rules, at: tuple, roles):
    """value with each item checked against its rule, in turn; a copy only
    when a check returns another object than its item."""
    out = value
    for i, (item, sub) in enumerate(zip(value, rules)):
        if (got := check(item, sub, (*at, i), roles)) is not item:
            if out is value:
                out = list(value)
            out[i] = got
    return out


def passes(value, rule) -> bool:
    """Whether value follows rule: for input that is skipped, not refused."""
    try:
        check(value, rule)
    except FieldError:
        return False
    return True


def predicate(test, problem: str):
    """The rule that passes a value when test(value, roles) holds, and
    otherwise names problem, with "{!r}" standing for the value as shown
    shows it."""
    def rule(value, at, roles):
        if test(value, roles):
            return value
        raise fault(at, problem.replace("{!r}", shown(value)))
    return rule


natural = predicate(lambda v, roles: type(v) is int and v >= 0, "expected a non-negative integer, got {!r}")
positive = predicate(lambda v, roles: type(v) is int and v > 0, "expected a positive integer, got {!r}")
device = predicate(lambda v, roles: type(v) is str and v in roles, "unknown device {!r}")


CLOCK_LIMIT_S = 2**60


def clock(rule):
    """rule, and a magnitude below 2**60: a time or offset in seconds that
    reaches a device clock. A clock adds up a few of them, and the sum must
    still fit in 64 bits, as in the TEK sighting log."""
    def checked(value, at, roles):
        value = check(value, rule, at, roles)
        if not -CLOCK_LIMIT_S < value < CLOCK_LIMIT_S:
            raise fault(at, f"expected a magnitude below 2**60, got {shown(value)}")
        return value
    return checked


def one_of(choices, what: str):
    return predicate(lambda v, roles: type(v) is str and v in choices, f"unknown {what} {{!r}}")


def has_role(role: str):
    """A declared device of that role."""
    of_role = predicate(lambda v, roles: roles[v] == role, f"{{!r}} is not a {role}")
    return lambda v, at, roles: of_role(device(v, at, roles), at, roles)


def hex_of(n: int):
    """A string of exactly n hex digits, either case."""
    digits = re.compile(f"[0-9a-fA-F]{{{n}}}")
    return predicate(lambda v, roles: type(v) is str and digits.fullmatch(v) is not None,
                     f"expected {n} hex digits, got {{!r}}")


def tagged(key: str, tables: dict, what: str):
    """An object whose key field names the table, of tables, that it follows;
    each table admits key too."""
    tag = {key: Field(one_of(tables, what))}
    tables = {name: {key: Field(str), **table} for name, table in tables.items()}

    def rule(value, at, roles):
        name = value.get(key) if type(value) is dict else None
        if type(name) is not str or name not in tables:
            # raises the fault: not an object, no tag, or a tag that names no table
            check({key: name} if type(value) is dict else value, tag, at)
        return check(value, tables[name], at, roles)
    return rule


def builds(rule, build):
    """rule, and then build(value) must not raise ConfigurationError or
    ValueError: a constructor's or decoder's own check, raised as a fault at
    the value's path."""
    def checked(value, at, roles):
        value = check(value, rule, at, roles)
        try:
            build(value)
        except (ConfigurationError, ValueError) as exc:
            raise fault(at, str(exc))
        return value
    return checked


# a string that base64-decodes strictly: no character outside the alphabet
base64_text = builds(str, lambda text: base64.b64decode(text, validate=True))
