"""Temporal-logic specification language over compiled state graphs.

The paper's feasibility question ("no application automaton reaches its
Error location") is one fixed reachability query.  This module adds a small
temporal-spec *language* so the QoS claims around it — "every waiting
application is granted within k slots", "a safed application recovers
before its next disturbance may arrive", "application A can actually reach
the slot" — become first-class, checkable properties over the same frozen
:class:`~repro.verification.kernel.CompiledStateGraph`: one compile, many
properties (the shape of ``tulip``'s spec-AST-over-transition-system
design).  Parsing and the AST live here; the vectorized evaluator is
:mod:`repro.verification.spec_eval`.

Grammar
-------

Four top-level forms (``k``, ``n`` are non-negative integers)::

    spec       := "always" predicate          invariant / safety
                | "always" "(" P "implies" "eventually" "<=" k Q ")"
                                              bounded response
                | "reachable" predicate       reachability (EF)
                | "eventually" predicate      inevitability / liveness (AF)

    predicate  := pred "implies" predicate | pred "or" pred
                | pred "and" pred | "not" pred | "(" predicate ")" | atom

    atom       := "true" | "false"
                | "idle"                      TT slot unoccupied
                | "occupant" "(" APP ")"      APP holds the slot
                | "queued" "(" APP ")"        APP's disturbance is buffered
                | "steady" "(" APP ")"        phase sugar, likewise
                                              waiting/holding/safe/done
                | "phase" "(" APP ")" ("==" | "!=") PHASE
                | "wait" "(" APP ")" CMP n    samples waited (0 outside W)
                | "dwell" "(" APP ")" CMP n   samples held (0 outside T)
                | "instances" "(" APP ")" CMP n
                | "buffer" CMP n              buffered-disturbance count
                | "missed" [ "(" APP ")" ]    deadline-miss event

    CMP        := "==" | "!=" | "<" | "<=" | ">" | ">="

``implies`` is right-associative and binds loosest, then ``or``, ``and``,
``not``.  The bounded ``eventually <= k`` operator is only meaningful as
the consequent of the top-level implication of an ``always`` (bounded
response); anywhere else it raises :class:`~repro.exceptions.SpecError`.

Compilation stops at the *first* deadline miss, so miss states are never
interned; the evaluator accounts for the pending error transition instead,
which makes ``always not missed`` exactly the paper's feasibility query —
same verdict, same witness.

Every AST node round-trips through plain dicts (:func:`spec_to_dict` /
:func:`spec_from_dict`) so specs travel over the service's JSON-lines wire
verbatim, and through :func:`format_spec` back to parseable source text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..exceptions import SpecError

__all__ = [
    "Always",
    "And",
    "Atom",
    "Implies",
    "Inevitable",
    "Not",
    "Or",
    "Reachable",
    "Response",
    "Spec",
    "Within",
    "format_predicate",
    "format_spec",
    "parse_spec",
    "spec_from_dict",
    "spec_to_dict",
    "specs_from_wire",
    "standard_spec_bundle",
]

#: Atom kinds that take no application argument.
_NULLARY_KINDS = frozenset({"true", "false", "idle", "buffer", "missed"})
#: Atom kinds comparing a numeric state field against a constant.
_NUMERIC_KINDS = frozenset({"wait", "dwell", "instances", "buffer"})
#: Valid phase names of the ``phase(APP) == ...`` comparison (and sugar).
PHASE_NAMES = ("steady", "waiting", "holding", "safe", "done")

_COMPARATORS = ("==", "!=", "<=", ">=", "<", ">")


# ------------------------------------------------------------------ AST nodes
@dataclass(frozen=True, slots=True)
class Atom:
    """A predicate over one decoded state (see the module grammar).

    ``kind`` is one of ``true``/``false``/``idle``/``occupant``/``queued``/
    ``phase``/``wait``/``dwell``/``instances``/``buffer``/``missed``;
    ``app`` names the application (``None`` for slot-global atoms), and
    numeric/phase kinds carry a comparator ``op`` and a ``value``.
    """

    kind: str
    app: Optional[str] = None
    op: Optional[str] = None
    value: Optional[Union[int, str]] = None


@dataclass(frozen=True, slots=True)
class Not:
    operand: "Predicate"


@dataclass(frozen=True, slots=True)
class And:
    operands: Tuple["Predicate", ...]


@dataclass(frozen=True, slots=True)
class Or:
    operands: Tuple["Predicate", ...]


@dataclass(frozen=True, slots=True)
class Implies:
    antecedent: "Predicate"
    consequent: "Predicate"


@dataclass(frozen=True, slots=True)
class Within:
    """Bounded ``eventually <= bound`` — only valid as the consequent of the
    top-level implication under ``always`` (the bounded-response form)."""

    bound: int
    operand: "Predicate"


Predicate = Union[Atom, Not, And, Or, Implies, Within]


# ------------------------------------------------------------ top-level forms
@dataclass(frozen=True, slots=True)
class Always:
    """Invariant: the predicate holds in every reachable state."""

    predicate: Predicate


@dataclass(frozen=True, slots=True)
class Reachable:
    """Reachability (EF): some reachable state satisfies the predicate."""

    predicate: Predicate


@dataclass(frozen=True, slots=True)
class Response:
    """Bounded response: ``always (trigger implies eventually<=bound goal)``
    — from every reachable trigger state, every run reaches a goal state
    within ``bound`` samples."""

    trigger: Predicate
    bound: int
    goal: Predicate


@dataclass(frozen=True, slots=True)
class Inevitable:
    """Liveness (AF): every infinite run eventually satisfies the predicate
    — refuted by a reachable lasso avoiding it forever."""

    predicate: Predicate


Form = Union[Always, Reachable, Response, Inevitable]


@dataclass(frozen=True, slots=True)
class Spec:
    """A named top-level specification."""

    name: str
    form: Form
    #: Memo of :attr:`text` (the form never changes, so neither does it).
    _text: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    @property
    def text(self) -> str:
        """Canonical parseable source text of the spec."""
        text = self._text
        if text is None:
            text = format_spec(self)
            object.__setattr__(self, "_text", text)
        return text

    def to_dict(self) -> Dict[str, Any]:
        return spec_to_dict(self)

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "Spec":
        return spec_from_dict(payload)


# ------------------------------------------------------------------ tokenizer
_TOKEN = re.compile(r"\s*(==|!=|<=|>=|<|>|\(|\)|\d+|[A-Za-z_][A-Za-z0-9_]*)")


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    position = 0
    while position < len(text):
        match = _TOKEN.match(text, position)
        if match is None:
            remainder = text[position:].strip()
            if not remainder:
                break
            raise SpecError(f"unexpected character {remainder[0]!r} in spec {text!r}")
        tokens.append(match.group(1))
        position = match.end()
    return tokens


class _Parser:
    """Recursive-descent parser over the token list (grammar above)."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.position = 0

    # ------------------------------------------------------------- plumbing
    def peek(self) -> Optional[str]:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise SpecError(f"unexpected end of spec {self.text!r}")
        self.position += 1
        return token

    def expect(self, token: str) -> None:
        found = self.take()
        if found != token:
            raise SpecError(
                f"expected {token!r} but found {found!r} in spec {self.text!r}"
            )

    def app_argument(self) -> str:
        self.expect("(")
        name = self.take()
        self.expect(")")
        return name

    # -------------------------------------------------------------- grammar
    def spec(self) -> Form:
        keyword = self.take()
        if keyword == "always":
            predicate = self.predicate()
            form = self._response_or_always(predicate)
        elif keyword == "reachable":
            form = Reachable(self.predicate())
        elif keyword == "eventually":
            form = Inevitable(self.predicate())
        else:
            raise SpecError(
                f"a spec starts with always/reachable/eventually, "
                f"not {keyword!r} ({self.text!r})"
            )
        if self.peek() is not None:
            raise SpecError(
                f"trailing tokens after spec: {' '.join(self.tokens[self.position:])!r}"
            )
        _validate_form(form)
        return form

    @staticmethod
    def _response_or_always(predicate: Predicate) -> Form:
        if isinstance(predicate, Implies) and isinstance(predicate.consequent, Within):
            within = predicate.consequent
            return Response(predicate.antecedent, within.bound, within.operand)
        return Always(predicate)

    def predicate(self) -> Predicate:
        left = self.disjunction()
        if self.peek() == "implies":
            self.take()
            return Implies(left, self.predicate())
        return left

    def disjunction(self) -> Predicate:
        operands = [self.conjunction()]
        while self.peek() == "or":
            self.take()
            operands.append(self.conjunction())
        return operands[0] if len(operands) == 1 else Or(tuple(operands))

    def conjunction(self) -> Predicate:
        operands = [self.unary()]
        while self.peek() == "and":
            self.take()
            operands.append(self.unary())
        return operands[0] if len(operands) == 1 else And(tuple(operands))

    def unary(self) -> Predicate:
        token = self.peek()
        if token == "not":
            self.take()
            return Not(self.unary())
        if token == "eventually":
            self.take()
            self.expect("<=")
            bound = self.integer()
            return Within(bound, self.unary())
        if token == "(":
            self.take()
            inner = self.predicate()
            self.expect(")")
            return inner
        return self.atom()

    def integer(self) -> int:
        token = self.take()
        if not token.isdigit():
            raise SpecError(f"expected an integer, found {token!r} ({self.text!r})")
        return int(token)

    def atom(self) -> Atom:
        token = self.take()
        if token in ("true", "false", "idle"):
            return Atom(token)
        if token == "missed":
            if self.peek() == "(":
                return Atom("missed", app=self.app_argument())
            return Atom("missed")
        if token in ("occupant", "queued"):
            return Atom(token, app=self.app_argument())
        if token in PHASE_NAMES:
            return Atom("phase", app=self.app_argument(), op="==", value=token)
        if token == "phase":
            app = self.app_argument()
            op = self.take()
            if op not in ("==", "!="):
                raise SpecError(f"phase comparisons use == or !=, not {op!r}")
            value = self.take()
            if value not in PHASE_NAMES:
                raise SpecError(
                    f"unknown phase {value!r}; phases are {', '.join(PHASE_NAMES)}"
                )
            return Atom("phase", app=app, op=op, value=value)
        if token in ("wait", "dwell", "instances"):
            app = self.app_argument()
            return Atom(token, app=app, op=self.comparator(), value=self.integer())
        if token == "buffer":
            return Atom("buffer", op=self.comparator(), value=self.integer())
        raise SpecError(f"unknown atom {token!r} in spec {self.text!r}")

    def comparator(self) -> str:
        token = self.take()
        if token not in _COMPARATORS:
            raise SpecError(f"expected a comparator, found {token!r} ({self.text!r})")
        return token


def _validate_form(form: Form) -> None:
    """Reject ``Within`` anywhere but the bounded-response consequent."""
    if isinstance(form, Response):
        roots = (form.trigger, form.goal)
    else:
        roots = (form.predicate,)
    stack: List[Predicate] = list(roots)
    while stack:
        node = stack.pop()
        if isinstance(node, Within):
            raise SpecError(
                "'eventually <= k' is only valid as the consequent of the "
                "top-level implication of an 'always' (bounded response)"
            )
        if isinstance(node, Not):
            stack.append(node.operand)
        elif isinstance(node, (And, Or)):
            stack.extend(node.operands)
        elif isinstance(node, Implies):
            stack.extend((node.antecedent, node.consequent))


def parse_spec(text: str, name: Optional[str] = None) -> Spec:
    """Parse one spec from source text; ``name`` defaults to the text."""
    form = _Parser(str(text)).spec()
    return Spec(name=str(name) if name is not None else str(text).strip(), form=form)


# ------------------------------------------------------------------ unparsing
def format_predicate(node: Predicate) -> str:
    """Canonical source text of a predicate (re-parses to the same AST)."""
    if isinstance(node, Atom):
        return _format_atom(node)
    if isinstance(node, Not):
        return f"not {_wrap(node.operand, tight=True)}"
    if isinstance(node, And):
        return " and ".join(_wrap(op, tight=True) for op in node.operands)
    if isinstance(node, Or):
        return " or ".join(_wrap(op) for op in node.operands)
    if isinstance(node, Implies):
        return f"{_wrap(node.antecedent)} implies {format_predicate(node.consequent)}"
    if isinstance(node, Within):
        return f"eventually <= {node.bound} {_wrap(node.operand, tight=True)}"
    raise SpecError(f"unknown predicate node {type(node).__name__}")


def _wrap(node: Predicate, tight: bool = False) -> str:
    """Parenthesize operands whose operator binds looser than the context."""
    loose = (Implies, Within) if not tight else (Implies, Within, And, Or)
    if isinstance(node, loose):
        return f"({format_predicate(node)})"
    return format_predicate(node)


def _format_atom(atom: Atom) -> str:
    if atom.kind in ("true", "false", "idle"):
        return atom.kind
    if atom.kind == "missed":
        return f"missed({atom.app})" if atom.app else "missed"
    if atom.kind in ("occupant", "queued"):
        return f"{atom.kind}({atom.app})"
    if atom.kind == "phase":
        if atom.op == "==":
            return f"{atom.value}({atom.app})"
        return f"phase({atom.app}) != {atom.value}"
    if atom.kind == "buffer":
        return f"buffer {atom.op} {atom.value}"
    if atom.kind in ("wait", "dwell", "instances"):
        return f"{atom.kind}({atom.app}) {atom.op} {atom.value}"
    raise SpecError(f"unknown atom kind {atom.kind!r}")


def format_spec(spec: Spec) -> str:
    """Canonical source text of a spec's form."""
    form = spec.form
    if isinstance(form, Always):
        return f"always {format_predicate(form.predicate)}"
    if isinstance(form, Reachable):
        return f"reachable {format_predicate(form.predicate)}"
    if isinstance(form, Inevitable):
        return f"eventually {format_predicate(form.predicate)}"
    if isinstance(form, Response):
        return (
            f"always ({_wrap(form.trigger)} implies "
            f"eventually <= {form.bound} {_wrap(form.goal, tight=True)})"
        )
    raise SpecError(f"unknown spec form {type(form).__name__}")


# --------------------------------------------------------------- dict round-trip
def _node_to_dict(node: Predicate) -> Dict[str, Any]:
    if isinstance(node, Atom):
        payload: Dict[str, Any] = {"type": "atom", "kind": node.kind}
        if node.app is not None:
            payload["app"] = node.app
        if node.op is not None:
            payload["op"] = node.op
        if node.value is not None:
            payload["value"] = node.value
        return payload
    if isinstance(node, Not):
        return {"type": "not", "operand": _node_to_dict(node.operand)}
    if isinstance(node, (And, Or)):
        return {
            "type": "and" if isinstance(node, And) else "or",
            "operands": [_node_to_dict(op) for op in node.operands],
        }
    if isinstance(node, Implies):
        return {
            "type": "implies",
            "antecedent": _node_to_dict(node.antecedent),
            "consequent": _node_to_dict(node.consequent),
        }
    if isinstance(node, Within):
        return {
            "type": "within",
            "bound": node.bound,
            "operand": _node_to_dict(node.operand),
        }
    raise SpecError(f"unknown predicate node {type(node).__name__}")


def _node_from_dict(payload: Mapping[str, Any]) -> Predicate:
    if not isinstance(payload, Mapping):
        raise SpecError(f"a predicate node must be an object, not {payload!r}")
    kind = payload.get("type")
    if kind == "atom":
        value = payload.get("value")
        if value is not None and not isinstance(value, str):
            value = int(value)
        return Atom(
            kind=str(payload["kind"]),
            app=None if payload.get("app") is None else str(payload["app"]),
            op=None if payload.get("op") is None else str(payload["op"]),
            value=value,
        )
    if kind == "not":
        return Not(_node_from_dict(payload["operand"]))
    if kind in ("and", "or"):
        operands = tuple(_node_from_dict(entry) for entry in payload["operands"])
        return And(operands) if kind == "and" else Or(operands)
    if kind == "implies":
        return Implies(
            _node_from_dict(payload["antecedent"]),
            _node_from_dict(payload["consequent"]),
        )
    if kind == "within":
        return Within(int(payload["bound"]), _node_from_dict(payload["operand"]))
    raise SpecError(f"unknown predicate node type {kind!r}")


def spec_to_dict(spec: Spec) -> Dict[str, Any]:
    """Wire form of one spec (re-parseable ``source`` included for humans)."""
    form = spec.form
    if isinstance(form, Always):
        body: Dict[str, Any] = {
            "type": "always",
            "predicate": _node_to_dict(form.predicate),
        }
    elif isinstance(form, Reachable):
        body = {"type": "reachable", "predicate": _node_to_dict(form.predicate)}
    elif isinstance(form, Inevitable):
        body = {"type": "inevitable", "predicate": _node_to_dict(form.predicate)}
    elif isinstance(form, Response):
        body = {
            "type": "response",
            "trigger": _node_to_dict(form.trigger),
            "bound": form.bound,
            "goal": _node_to_dict(form.goal),
        }
    else:
        raise SpecError(f"unknown spec form {type(form).__name__}")
    return {"name": spec.name, "form": body, "source": format_spec(spec)}


def spec_from_dict(payload: Mapping[str, Any]) -> Spec:
    """Rebuild a spec from its wire form (``form`` object or ``source``)."""
    if not isinstance(payload, Mapping):
        raise SpecError(f"a spec must be an object or string, not {payload!r}")
    body = payload.get("form")
    name = payload.get("name")
    if body is None:
        source = payload.get("source")
        if source is None:
            raise SpecError("a spec object needs a 'form' or a 'source' field")
        return parse_spec(str(source), name=name)
    kind = body.get("type") if isinstance(body, Mapping) else None
    if kind == "always":
        form: Form = Always(_node_from_dict(body["predicate"]))
    elif kind == "reachable":
        form = Reachable(_node_from_dict(body["predicate"]))
    elif kind == "inevitable":
        form = Inevitable(_node_from_dict(body["predicate"]))
    elif kind == "response":
        form = Response(
            _node_from_dict(body["trigger"]),
            int(body["bound"]),
            _node_from_dict(body["goal"]),
        )
    else:
        raise SpecError(f"unknown spec form type {kind!r}")
    _validate_form(form)
    return Spec(name=str(name) if name is not None else format_spec_form(form), form=form)


def format_spec_form(form: Form) -> str:
    return format_spec(Spec(name="", form=form))


def specs_from_wire(payload: Any) -> Tuple[Spec, ...]:
    """Normalize a wire/user spec batch: source strings, wire dicts or
    :class:`Spec` instances, in any mix."""
    if isinstance(payload, (str, Spec, Mapping)):
        payload = [payload]
    if not isinstance(payload, (list, tuple)) or not payload:
        raise SpecError("'specs' must be a non-empty list of spec strings/objects")
    specs: List[Spec] = []
    for entry in payload:
        if isinstance(entry, Spec):
            specs.append(entry)
        elif isinstance(entry, str):
            specs.append(parse_spec(entry))
        elif isinstance(entry, Mapping):
            specs.append(spec_from_dict(entry))
        else:
            raise SpecError(f"unparseable spec entry {entry!r}")
    return tuple(specs)


# ----------------------------------------------------------- standard bundle
def standard_spec_bundle(profiles: Sequence[Any]) -> Tuple[Spec, ...]:
    """The standard QoS bundle of a slot configuration.

    Restates the paper's claims as checkable specs, per application ``A``:

    * ``no-miss`` — ``always not missed``: exactly the feasibility query.
    * ``grant-response(A)`` — a waiting ``A`` is granted the slot within
      ``max_wait + 1`` samples on every run (the deadline claim with the
      grant made explicit).
    * ``recovery(A)`` — a safed ``A`` settles back to steady (or exhausts
      its instance budget) within its minimum inter-arrival time.
    * ``reach-grant(A)`` — ``A`` can actually acquire the slot.
    * ``inevitably-disturbed(A₀)`` — a genuine liveness query (typically
      *violated*: the undisturbed run is a counterexample lasso), included
      so every campaign scenario exercises the lasso machinery.

    Profiles may be :class:`~repro.switching.profile.SwitchingProfile`
    objects or anything exposing ``name``/``max_wait``/``min_inter_arrival``.
    """
    specs: List[Spec] = [parse_spec("always not missed", name="no-miss")]
    for profile in profiles:
        name = profile.name
        specs.append(
            parse_spec(
                f"always (waiting({name}) implies "
                f"eventually <= {int(profile.max_wait) + 1} holding({name}))",
                name=f"grant-response({name})",
            )
        )
        specs.append(
            parse_spec(
                f"always (safe({name}) implies "
                f"eventually <= {int(profile.min_inter_arrival)} "
                f"(steady({name}) or done({name})))",
                name=f"recovery({name})",
            )
        )
        specs.append(
            parse_spec(f"reachable occupant({name})", name=f"reach-grant({name})")
        )
    first = profiles[0].name
    specs.append(
        parse_spec(
            f"eventually not steady({first})", name=f"inevitably-disturbed({first})"
        )
    )
    return tuple(specs)
