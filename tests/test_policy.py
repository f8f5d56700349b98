"""Policy-engine grammar, store persistence and plan generation."""
import pytest

from botgate.errors import DataError, PolicyError
from botgate.policy import (
    AddAction, Binding, CreatePolicy, DeleteAction, DeletePolicy, PolicyAction,
    PolicyStore, apply_policies, load_store, parse_policy_command, save_store,
)


def test_parse_all_four_verbs():
    cmd = parse_policy_command("policy-engine --create-policy quarantine")
    assert cmd == CreatePolicy("quarantine")

    cmd = parse_policy_command(
        "policy-engine --add-action quarantine --dev 192.168.1.10 --action BLOCK_ALL")
    assert cmd == AddAction("quarantine", "192.168.1.10", PolicyAction.BLOCK_ALL)

    cmd = parse_policy_command(
        "policy-engine --add-action soften --dev cam-1 "
        "--action RESTRICT_TO_SECURE_DOMAINS --allow vendor.example.com,ntp.org")
    assert cmd == AddAction("soften", "cam-1", PolicyAction.RESTRICT_TO_SECURE_DOMAINS,
                            ["vendor.example.com", "ntp.org"])

    cmd = parse_policy_command(
        "policy-engine --delete-action quarantine --dev 192.168.1.10 --action BLOCK_ALL")
    assert cmd == DeleteAction("quarantine", "192.168.1.10", PolicyAction.BLOCK_ALL)

    cmd = parse_policy_command("policy-engine --delete-policy quarantine")
    assert cmd == DeletePolicy("quarantine")

    # the leading program token is optional; token lists work too
    assert parse_policy_command(["--create-policy", "p1"]) == CreatePolicy("p1")


def test_parse_errors():
    with pytest.raises(PolicyError, match="verb"):
        parse_policy_command("policy-engine --frobnicate x")
    with pytest.raises(PolicyError):
        parse_policy_command("")
    with pytest.raises(PolicyError, match="usage"):
        parse_policy_command("--create-policy")
    with pytest.raises(PolicyError, match="unknown action"):
        parse_policy_command("--add-action p --dev d --action NUKE")
    with pytest.raises(PolicyError, match="requires --dev"):
        parse_policy_command("--add-action p --dev d")
    with pytest.raises(PolicyError, match="needs a value"):
        parse_policy_command("--add-action p --dev d --action")
    with pytest.raises(PolicyError, match="duplicate"):
        parse_policy_command("--add-action p --dev d --dev e --action BLOCK_ALL")
    with pytest.raises(PolicyError, match="only valid with --add-action"):
        parse_policy_command("--delete-action p --dev d --action BLOCK_ALL --allow x")
    with pytest.raises(PolicyError, match="allowlist"):
        parse_policy_command("--add-action p --dev d --action RESTRICT_TO_SECURE_DOMAINS")


def test_binding_validation():
    with pytest.raises(PolicyError):
        Binding("d", PolicyAction.BLOCK_ALL, ["x.com"])
    with pytest.raises(PolicyError):
        Binding("d", PolicyAction.RESTRICT_TO_SECURE_DOMAINS, [])


def test_store_lifecycle():
    store = PolicyStore()
    store.apply_command(CreatePolicy("p1"))
    with pytest.raises(PolicyError, match="already exists"):
        store.apply_command(CreatePolicy("p1"))
    store.apply_command(AddAction("p1", "192.168.1.10", PolicyAction.BLOCK_ALL))
    with pytest.raises(PolicyError, match="no such policy"):
        store.apply_command(AddAction("ghost", "d", PolicyAction.BLOCK_ALL))
    with pytest.raises(PolicyError, match="no binding"):
        store.apply_command(DeleteAction("p1", "192.168.1.10", PolicyAction.MONITOR_ONLY))
    store.apply_command(DeleteAction("p1", "192.168.1.10", PolicyAction.BLOCK_ALL))
    assert store.policies["p1"].bindings == []
    store.apply_command(DeletePolicy("p1"))
    assert store.policies == {}
    with pytest.raises(PolicyError):
        store.apply_command(DeletePolicy("p1"))


def test_store_round_trip(tmp_path):
    store = PolicyStore()
    for cmd in (
        CreatePolicy("quarantine"),
        AddAction("quarantine", "192.168.1.10", PolicyAction.BLOCK_ALL),
        AddAction("quarantine", "*", PolicyAction.MONITOR_ONLY),
        CreatePolicy("soften"),
        AddAction("soften", "cam-1", PolicyAction.RESTRICT_TO_SECURE_DOMAINS,
                  ["vendor.example.com", "ntp.org"]),
    ):
        store.apply_command(cmd)
    path = tmp_path / "policies.txt"
    save_store(store, path)
    loaded = load_store(path)
    assert loaded.policies.keys() == store.policies.keys()
    assert loaded.policies["soften"].bindings == store.policies["soften"].bindings
    save_store(loaded, tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("#policies v1\nfrobnicate everything\n")
    with pytest.raises(DataError, match=f"policy store {path} line 2: unparseable"):
        load_store(path)
    path.write_text("no header\n")
    with pytest.raises(DataError, match=f"policy store {path} line 1: bad policy store header"):
        load_store(path)


def test_apply_policies_precedence():
    store = PolicyStore()
    store.apply_command(CreatePolicy("p"))
    store.apply_command(AddAction("p", "*", PolicyAction.MONITOR_ONLY))
    store.apply_command(AddAction("p", "192.168.1.10", PolicyAction.BLOCK_ALL))
    store.apply_command(AddAction("p", "cam-2", PolicyAction.RESTRICT_TO_SECURE_DOMAINS,
                                  ["ntp.org"]))
    plan = apply_policies(
        store,
        ["192.168.1.10", "192.168.1.11", "192.168.1.12"],
        name_map={"cam-2": "192.168.1.11"},
    )
    by_dev = {p.device_ip: p for p in plan}
    # device-specific binding beats the wildcard
    assert by_dev["192.168.1.10"].action is PolicyAction.BLOCK_ALL
    # symbolic names resolve through the map
    assert by_dev["192.168.1.11"].action is PolicyAction.RESTRICT_TO_SECURE_DOMAINS
    assert by_dev["192.168.1.11"].allowlist == ["ntp.org"]
    # otherwise the wildcard applies
    assert by_dev["192.168.1.12"].action is PolicyAction.MONITOR_ONLY
    assert by_dev["192.168.1.12"].policy == "p"


def test_apply_policies_default():
    plan = apply_policies(PolicyStore(), ["192.168.1.10"])
    assert len(plan) == 1
    assert plan[0].action is PolicyAction.MONITOR_ONLY
    assert plan[0].policy is None
