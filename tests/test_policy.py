"""Policy-engine grammar, store persistence and plan generation."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botgate.errors import DataError, PolicyError
from botgate.policy import (
    Binding, PolicyAction, PolicyStore, apply_policies, load_store, save_store,
)


def _store(*commands: str) -> PolicyStore:
    store = PolicyStore()
    for command in commands:
        store.apply_command(command.split())
    return store


def test_parse_all_four_verbs():
    store = _store("--create-policy quarantine")
    assert store.policies == {"quarantine": []}

    store.apply_command(
        "--add-action quarantine --dev 192.168.1.10 --action BLOCK_ALL".split())
    assert store.policies["quarantine"] == [Binding("192.168.1.10", PolicyAction.BLOCK_ALL)]

    store.apply_command("--create-policy soften".split())
    store.apply_command(
        "--add-action soften --dev cam-1 "
        "--action RESTRICT_TO_SECURE_DOMAINS --allow vendor.example.com,ntp.org".split())
    assert store.policies["soften"] == [Binding(
        "cam-1", PolicyAction.RESTRICT_TO_SECURE_DOMAINS, ["vendor.example.com", "ntp.org"])]

    store.apply_command(
        "--delete-action quarantine --dev 192.168.1.10 --action BLOCK_ALL".split())
    assert store.policies["quarantine"] == []

    store.apply_command("--delete-policy quarantine".split())
    assert list(store.policies) == ["soften"]


def test_parse_errors():
    store = _store("--create-policy p", "--add-action p --dev d --action BLOCK_ALL")
    before = {"p": [Binding("d", PolicyAction.BLOCK_ALL)]}
    for command, match in [
        ("--frobnicate x", "token 1: unknown verb '--frobnicate'"),
        ("policy-engine --create-policy q", "token 1: unknown verb 'policy-engine'"),
        ("", "empty policy command"),
        ("--create-policy", "usage"),
        ("--add-action p --dev d --action NUKE", "unknown action"),
        ("--add-action p --dev d", "requires --dev"),
        ("--add-action p --dev d --action", "needs a value"),
        ("--add-action p --dev d --dev e --action BLOCK_ALL", "duplicate"),
        ("--delete-action p --dev d --action BLOCK_ALL --allow x",
         "only valid with --add-action"),
        ("--add-action p --dev d --action RESTRICT_TO_SECURE_DOMAINS", "allowlist"),
    ]:
        with pytest.raises(PolicyError, match=match):
            store.apply_command(command.split())
        assert store.policies == before


def test_binding_validation():
    with pytest.raises(PolicyError):
        Binding("d", PolicyAction.BLOCK_ALL, ["x.com"])
    with pytest.raises(PolicyError):
        Binding("d", PolicyAction.RESTRICT_TO_SECURE_DOMAINS, [])


def test_store_lifecycle():
    store = _store("--create-policy p1")
    with pytest.raises(PolicyError, match="already exists"):
        store.apply_command(["--create-policy", "p1"])
    store.apply_command("--add-action p1 --dev 192.168.1.10 --action BLOCK_ALL".split())
    with pytest.raises(PolicyError, match="no such policy"):
        store.apply_command("--add-action ghost --dev d --action BLOCK_ALL".split())
    with pytest.raises(PolicyError, match="no binding"):
        store.apply_command("--delete-action p1 --dev 192.168.1.10 --action MONITOR_ONLY".split())
    store.apply_command("--delete-action p1 --dev 192.168.1.10 --action BLOCK_ALL".split())
    assert store.policies["p1"] == []
    store.apply_command(["--delete-policy", "p1"])
    assert store.policies == {}
    with pytest.raises(PolicyError):
        store.apply_command(["--delete-policy", "p1"])


def test_store_round_trip(tmp_path):
    store = _store(
        "--create-policy quarantine",
        "--add-action quarantine --dev 192.168.1.10 --action BLOCK_ALL",
        "--add-action quarantine --dev * --action MONITOR_ONLY",
        "--create-policy soften",
        "--add-action soften --dev cam-1 --action RESTRICT_TO_SECURE_DOMAINS "
        "--allow vendor.example.com,ntp.org",
    )
    path = tmp_path / "policies.txt"
    save_store(store, path)
    loaded = load_store(path)
    assert loaded.policies.keys() == store.policies.keys()
    assert loaded.policies["soften"] == store.policies["soften"]
    save_store(loaded, tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


# names from a small pool, so that later commands meet earlier ones, plus any
# short text, often with whitespace or a lone surrogate (an undecodable argv byte)
_TOKENS = st.sampled_from(["p", "q", "*", "192.168.1.10"]) | st.text(
    st.characters() | st.sampled_from(" \t\x1c\udcff"), max_size=3)
_ACTIONS = st.sampled_from([a.value for a in PolicyAction])
_COMMANDS = st.one_of(
    st.tuples(st.sampled_from(["--create-policy", "--delete-policy"]), _TOKENS).map(list),
    st.tuples(st.sampled_from(["--add-action", "--delete-action"]), _TOKENS, _TOKENS,
              _ACTIONS, st.none() | st.lists(_TOKENS, min_size=1, max_size=3)).map(
        lambda c: [c[0], c[1], "--dev", c[2], "--action", c[3]]
        + ([] if c[4] is None else ["--allow", ",".join(c[4])])),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_COMMANDS, max_size=6))
def test_accepted_commands_round_trip_through_the_store(tmp_path_factory, commands):
    path = tmp_path_factory.mktemp("store") / "policies.txt"
    store = PolicyStore()
    for tokens in commands:
        before = {name: list(bindings) for name, bindings in store.policies.items()}
        try:
            store.apply_command(tokens)
        except PolicyError:
            assert store.policies == before  # a refused command changes nothing
            continue
        save_store(store, path)
        assert load_store(path).policies == store.policies


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("#policies v1\nfrobnicate everything\n")
    with pytest.raises(DataError, match=f"policy store {path} line 2: unparseable"):
        load_store(path)
    path.write_text("no header\n")
    with pytest.raises(DataError, match=f"policy store {path} line 1: bad policy store header"):
        load_store(path)


def test_apply_policies_precedence():
    store = _store(
        "--create-policy p",
        "--add-action p --dev * --action MONITOR_ONLY",
        "--add-action p --dev 192.168.1.10 --action BLOCK_ALL",
        "--add-action p --dev cam-2 --action RESTRICT_TO_SECURE_DOMAINS --allow ntp.org",
    )
    plan = apply_policies(
        store,
        ["192.168.1.10", "192.168.1.11", "192.168.1.12"],
        name_map={"cam-2": "192.168.1.11"},
    )
    by_dev = {p["device"]: p for p in plan}
    # device-specific binding beats the wildcard
    assert by_dev["192.168.1.10"]["action"] == "BLOCK_ALL"
    # symbolic names resolve through the map
    assert by_dev["192.168.1.11"]["action"] == "RESTRICT_TO_SECURE_DOMAINS"
    assert by_dev["192.168.1.11"]["allowlist"] == ["ntp.org"]
    # otherwise the wildcard applies
    assert by_dev["192.168.1.12"]["action"] == "MONITOR_ONLY"
    assert by_dev["192.168.1.12"]["policy"] == "p"


def test_apply_policies_default():
    plan = apply_policies(PolicyStore(), ["192.168.1.10"])
    assert plan == [{"device": "192.168.1.10", "action": "MONITOR_ONLY", "policy": None,
                     "allowlist": []}]
