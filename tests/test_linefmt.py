import pytest
from hypothesis import assume, given, settings, strategies as st

from bessctl.battery import BatteryConfig, TtcParams, builtin_params_text, parse_ttc_params
from bessctl.capability import (
    KNOWN_ANCHORS,
    CapabilityCurve,
    CurveValidationError,
    Disk,
    ParabolaCap,
    PMax,
    PMin,
    QMax,
    builtin_curve_text,
    parse_curves,
)
from bessctl.grid import DroopConfig, TransformerParams
from bessctl.linefmt import (
    LineFormatError,
    parse_number,
    read_blocks,
    read_key_values,
    tokenize,
)
from bessctl.optimizer import ControllerConfig
from bessctl.simctl import ScenarioSpec, load_run_config


def test_tokenize_skips_blanks_and_comments():
    lines = ["# header", "", "  a 1  # trailing", "b 2"]
    out = list(tokenize(lines))
    assert out == [(3, ["a", "1"]), (4, ["b", "2"])]


def test_parse_number_plain_and_scientific():
    assert parse_number("1.5") == 1.5
    assert parse_number("-2e-3") == -2e-3
    assert parse_number("657.1") == 657.1


def test_parse_number_power_of_ten_shorthand():
    assert parse_number("8.29^{-18}") == 8.29e-18
    assert parse_number("-2.16^{-4}") == -2.16e-4
    assert parse_number("1.4^-3") == 1.4e-3
    assert parse_number("3^{2}") == 300.0


def test_parse_number_rejects_junk():
    with pytest.raises(LineFormatError) as err:
        parse_number("abc", "doc.txt", 7)
    assert "doc.txt:7" in str(err.value)


def test_read_key_values(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("# c\nalpha 1\nbeta two words\n", encoding="utf-8")
    assert read_key_values(path) == {"alpha": (2, "1"), "beta": (3, "two words")}


def test_read_key_values_later_line_overrides(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("alpha 1\nbeta 2\nalpha 3\n", encoding="utf-8")
    assert read_key_values(path) == {"alpha": (3, "3"), "beta": (2, "2")}


def test_read_key_values_rejects_bare_key(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("alpha\n", encoding="utf-8")
    with pytest.raises(LineFormatError) as err:
        read_key_values(path)
    assert ":1:" in str(err.value)


BOX = "box <id> <x> <y>"


class BoxFormatError(LineFormatError):
    pass


def test_read_blocks_yields_header_and_body_lines():
    lines = ["# c", "box b1 1 2", "  w 3  # note", "", "end", "box b2 4 5", "end"]
    assert list(read_blocks(lines, "doc", BOX)) == [
        (2, ["b1", "1", "2"], [(3, ["w", "3"])]),
        (6, ["b2", "4", "5"], []),
    ]


@pytest.mark.parametrize(
    "lines, lineno, message",
    [
        (["lid b1 1 2", "end"], 1, "expected `box <id> <x> <y>`"),
        (["box b1 1", "end"], 1, "expected `box <id> <x> <y>`"),
        (["box b1 1 2", "end", "", "w 3"], 4, "expected `box <id> <x> <y>`"),
        (["box b1 1 2", "end", "box b2 1 2", "  w 3"], 3, "box 'b2' is missing `end`"),
    ],
)
def test_read_blocks_errors_name_the_line_in_the_callers_class(lines, lineno, message):
    with pytest.raises(BoxFormatError) as err:
        list(read_blocks(lines, "doc", BOX, BoxFormatError))
    assert str(err.value) == f"doc:{lineno}: {message}"


NUMBERS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "1", "0.5", "0.3333333333333333", "600", "500"]),
    st.sampled_from(["300", "270", "330", "-700", "700", "1e-3", "8.29^{-18}", "1.4^-3"]),
    st.floats().map(repr),
    st.tuples(st.integers(-99, 99), st.integers(-400, 400)).map(lambda me: f"{me[0]}^{{{me[1]}}}"),
)
JUNK = st.sampled_from(["x", "#", "1e", "^{", "--", "end#", "0x10", "2^{", "-", "curve", "params"])


@st.composite
def documents(draw, text, keywords):
    """Documents of one block grammar: its shipped blocks, whole or with one
    body line replaced, and lines of its keywords, numbers in every accepted
    spelling and junk, mostly grouped into blocks that may lack their `end`."""
    shipped = [chunk.splitlines() for chunk in text.strip().split("\n\n")[1:]]
    tokens = st.lists(st.one_of(st.sampled_from(keywords), NUMBERS, JUNK), max_size=4)

    def draw_line():
        kind = draw(st.sampled_from(["shipped", "keyword", "tokens"]))
        if kind == "shipped":
            return draw(st.sampled_from(draw(st.sampled_from(shipped))))
        head = [draw(st.sampled_from(keywords))] if kind == "keyword" else []
        return " ".join(head + draw(tokens))

    doc = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["shipped", "mutated", "mutated", "block", "line"]))
        if kind == "line":
            doc.append(draw_line())
        elif kind == "block":
            header = " ".join([keywords[0], "id", draw(NUMBERS), draw(NUMBERS)])
            doc += [header] + [draw_line() for _ in range(draw(st.integers(0, 10)))]
            doc += draw(st.sampled_from([["end"], ["end"], ["end"], []]))
        else:
            block = list(draw(st.sampled_from(shipped)))
            if kind == "mutated":
                block[draw(st.integers(1, len(block) - 2))] = draw_line()
            doc += block
    return doc


#: Each grammar's words, its opener first.
CURVE_KEYWORDS = "curve end pmin pmax disk parabola qmax all upperQ lowerQ".split()
PARAMS_KEYWORDS = "params end a b rs r1 c1 r2 c2 r3 c3".split()


@pytest.mark.parametrize(
    "parse, text, keywords",
    [
        (parse_curves, builtin_curve_text(), CURVE_KEYWORDS),
        (parse_ttc_params, builtin_params_text(), PARAMS_KEYWORDS),
    ],
    ids=["curves", "params"],
)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_block_parser_fails_only_with_value_errors_naming_a_statement_line(
    parse, text, keywords, data
):
    lines = data.draw(documents(text, keywords))
    try:
        parse(lines, "doc")
    except LineFormatError as err:
        assert 1 <= err.lineno <= len(lines)
        assert str(err).startswith(f"doc:{err.lineno}: ")
        assert lines[err.lineno - 1].split("#", 1)[0].strip()
    except ValueError:
        pass


# Round trip: valid objects rendered to text parse back to equal objects.

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def number_text(draw, value):
    """repr(value), or the same digits in the ``m^{e}`` shorthand, with or
    without braces; both parse back to value exactly."""
    text = repr(value)
    if not draw(st.booleans()):
        return text
    mantissa, _, exponent = text.partition("e")
    exponent = int(exponent or "0")
    return f"{mantissa}^{{{exponent}}}" if draw(st.booleans()) else f"{mantissa}^{exponent}"


def comment(draw):
    return draw(st.sampled_from(["", "  # note"]))


NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.-]{0,11}", fullmatch=True)

ATOMS = st.one_of(
    st.builds(PMin, FINITE.filter(lambda p: p <= 0.0)),
    st.builds(PMax, FINITE.filter(lambda p: p >= 0.0)),
    st.builds(Disk, POSITIVE, st.sampled_from(["all", "upperQ", "lowerQ"])),
    st.builds(
        ParabolaCap,
        FINITE.filter(lambda c: c >= 0.0),
        FINITE,
        FINITE.filter(lambda c: c <= 0.0),
    ),
    st.builds(QMax, FINITE.filter(lambda q: q >= 0.0)),
)

ATOM_KEYWORDS = {PMin: "pmin", PMax: "pmax", Disk: "disk", ParabolaCap: "parabola", QMax: "qmax"}


@st.composite
def curve_documents(draw):
    """(curves, lines): valid curves of every atom kind and disk sector, and
    a document that spells them out."""
    curves, lines = [], []
    for _ in range(draw(st.integers(0, 4))):
        vdc, vac = draw(st.sampled_from(sorted(KNOWN_ANCHORS)))
        atoms = draw(st.lists(ATOMS, max_size=6))
        try:
            curve = CapabilityCurve(draw(NAMES), vdc, vac, tuple(atoms))
        except CurveValidationError:  # a PMin and a PMax both at 0
            assume(False)
        curves.append(curve)
        lines.append(f"curve {curve.id} {draw(number_text(vdc))} {draw(number_text(vac))}")
        for atom in atoms:
            words = [ATOM_KEYWORDS[type(atom)]]
            words += [draw(number_text(v)) for k, v in vars(atom).items() if k != "sector"]
            if isinstance(atom, Disk) and (atom.sector != "all" or draw(st.booleans())):
                words.append(atom.sector)
            lines.append("  " + " ".join(words) + comment(draw))
        lines += ["end", ""]
    return curves, lines


@settings(max_examples=300, deadline=None)
@given(doc=curve_documents())
def test_rendered_curves_parse_back_equal(doc):
    curves, lines = doc
    assert parse_curves(lines, "doc") == curves


PARAM_FIELDS = ("a", "b", "rs", "r1", "c1", "r2", "c2", "r3", "c3")


@st.composite
def params_documents(draw):
    """(bands, lines): SOC bands partitioning [0, 1], in any order, and a
    document that spells them out with their keys in any order."""
    cuts = draw(st.sets(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=3))
    edges = [0.0, *sorted(cuts), 1.0]
    bands = [
        TtcParams(
            **{key: draw(FINITE if key in ("a", "b") else POSITIVE) for key in PARAM_FIELDS},
            soc_lo=lo,
            soc_hi=hi,
        )
        for lo, hi in zip(edges, edges[1:])
    ]
    bands = draw(st.permutations(bands))
    lines = []
    for band in bands:
        lines.append(
            f"params {draw(NAMES)} {draw(number_text(band.soc_lo))} {draw(number_text(band.soc_hi))}"
        )
        for key in draw(st.permutations(PARAM_FIELDS)):
            lines.append(f"  {key} {draw(number_text(getattr(band, key)))}" + comment(draw))
        lines += ["end", ""]
    return bands, lines


@settings(max_examples=300, deadline=None)
@given(doc=params_documents())
def test_rendered_ttc_params_parse_back_equal(doc):
    bands, lines = doc
    assert parse_ttc_params(lines, "doc") == bands


UNIT = st.floats(0.0, 1.0)
MODERATE = st.floats(1e-3, 1e6)

#: Scenario-file key -> (object it configures, field, values to draw).
SCENARIO_KEYS = {
    "alpha0_kw_per_hz": ("scenario", "alpha0", POSITIVE),
    "beta0_kvar_per_v": ("scenario", "beta0", POSITIVE),
    "duration_s": ("scenario", "duration_s", POSITIVE),
    "lambda_p": ("scenario", "lambda_p", st.floats(0.0, 1e6)),
    "lambda_q": ("scenario", "lambda_q", st.floats(0.0, 1e6)),
    "c_shrink": ("scenario", "c_shrink", st.floats(0.0, 1.0, exclude_min=True)),
    "soc_init": ("scenario", "soc_init", UNIT),
    "f_ref_hz": ("droop", "f_ref", FINITE),
    "v_ref_kv": ("droop", "v_ref", POSITIVE),
    "c_max_ah": ("battery", "c_max_ah", POSITIVE),
    "eta": ("battery", "eta", st.floats(0.0, 1.0, exclude_min=True)),
    "soc_min": ("battery", "soc_min", UNIT),
    "soc_max": ("battery", "soc_max", UNIT),
    "vdc_min_v": ("battery", "vdc_min", st.floats(1.0, 2000.0)),
    "vdc_max_v": ("battery", "vdc_max", st.floats(1.0, 2000.0)),
    "delta_t_s": ("battery", "delta_t", POSITIVE),
    "turns_ratio": ("transformer", "n", MODERATE),
    "v_lv_v": ("transformer", "v_lv", MODERATE),
    "s_rated_kva": ("transformer", "s_rated_kva", MODERATE),
    "u_k": ("transformer", "u_k", st.floats(0.0, 1.0)),
}
REQUIRED_SCENARIO_KEYS = ("alpha0_kw_per_hz", "beta0_kvar_per_v", "duration_s", "c_max_ah")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_rendered_scenario_file_loads_back_equal(tmp_path_factory, data):
    optional = st.sampled_from(sorted(set(SCENARIO_KEYS) - set(REQUIRED_SCENARIO_KEYS)))
    keys = [*REQUIRED_SCENARIO_KEYS, *data.draw(st.sets(optional))]
    values = {key: data.draw(SCENARIO_KEYS[key][2]) for key in data.draw(st.permutations(keys))}
    fields = {"scenario": {}, "droop": {}, "battery": {}, "transformer": {}}
    for key, value in values.items():
        owner, field, _ = SCENARIO_KEYS[key]
        fields[owner][field] = value
    trace = data.draw(st.one_of(st.none(), st.from_regex(r"[A-Za-z0-9_.:=,/-]+", fullmatch=True)))
    try:
        scenario = ScenarioSpec(trace=trace, **fields["scenario"])
        droop = DroopConfig(
            scenario.alpha0,
            scenario.beta0,
            lambda_p=scenario.lambda_p,
            lambda_q=scenario.lambda_q,
            **fields["droop"],
        )
        battery = BatteryConfig(**fields["battery"])
        transformer = TransformerParams.from_nameplate(**fields["transformer"])
    except ValueError:  # zero weights, or a SOC or vdc window the wrong way round
        assume(False)
    expected = (scenario, ControllerConfig(droop, battery, transformer, scenario.c_shrink))

    lines = [
        f"{key} {data.draw(number_text(value))}" + comment(data.draw)
        for key, value in values.items()
    ]
    if trace is not None:
        lines.append(f"trace {trace}")
    path = tmp_path_factory.mktemp("scenario") / "run.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert load_run_config(path) == expected
