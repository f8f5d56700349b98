"""Policy engine: command grammar, persistent store and detection-to-action
mapping. The engine emits a declarative action plan; enforcement is someone
else's job."""
from __future__ import annotations

import shlex
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

from .errors import DataError, PolicyError

STORE_HEADER = "#policies v1"
WILDCARD = "*"


class PolicyAction(str, Enum):
    BLOCK_ALL = "BLOCK_ALL"
    RESTRICT_TO_SECURE_DOMAINS = "RESTRICT_TO_SECURE_DOMAINS"
    MONITOR_ONLY = "MONITOR_ONLY"


@dataclass
class Binding:
    device: str                       # IP, symbolic name, or "*"
    action: PolicyAction
    allowlist: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.action is PolicyAction.RESTRICT_TO_SECURE_DOMAINS and not self.allowlist:
            raise PolicyError("RESTRICT_TO_SECURE_DOMAINS requires a domain allowlist")
        if self.action is not PolicyAction.RESTRICT_TO_SECURE_DOMAINS and self.allowlist:
            raise PolicyError("allowlist only valid with RESTRICT_TO_SECURE_DOMAINS")


@dataclass
class Policy:
    name: str
    bindings: list[Binding] = field(default_factory=list)


# --- command grammar -------------------------------------------------------

@dataclass
class CreatePolicy:
    name: str

@dataclass
class AddAction:
    policy: str
    device: str
    action: PolicyAction
    allowlist: list[str] = field(default_factory=list)

@dataclass
class DeleteAction:
    policy: str
    device: str
    action: PolicyAction

@dataclass
class DeletePolicy:
    name: str

Command = Union[CreatePolicy, AddAction, DeleteAction, DeletePolicy]

_VERBS = {"--create-policy", "--add-action", "--delete-action", "--delete-policy"}
_ACTION_FLAGS = {"--dev", "--action", "--allow"}


def _parse_action(token: str, pos: int) -> PolicyAction:
    try:
        return PolicyAction(token)
    except ValueError:
        raise PolicyError(f"token {pos}: unknown action {token!r}") from None


def _field(token: str, what: str) -> str:
    """``token`` as a store field; PolicyError for an empty token, or one with
    whitespace or an undecodable argv byte (a surrogate escape), which the
    whitespace-separated UTF-8 store could not write or read back."""
    if not token or any(c.isspace() or "\ud800" <= c <= "\udfff" for c in token):
        raise PolicyError(f"{what} {token!r} is empty or contains whitespace or non-UTF-8")
    return token


def parse_policy_command(text: Union[str, list[str]]) -> Command:
    """Parse the four policy-engine command shapes.

    Accepts either the full ``policy-engine --verb ...`` string or a
    pre-split argument list (leading ``policy-engine`` optional)."""
    tokens = shlex.split(text) if isinstance(text, str) else list(text)
    if tokens and tokens[0] == "policy-engine":
        tokens = tokens[1:]
    if not tokens:
        raise PolicyError("empty policy command")
    verb = tokens[0]
    if verb not in _VERBS:
        raise PolicyError(f"token 1: unknown verb {verb!r}")
    args = tokens[1:]
    if verb in ("--create-policy", "--delete-policy"):
        if len(args) != 1 or args[0].startswith("--"):
            raise PolicyError(f"usage: policy-engine {verb} <policy-name>")
        name = _field(args[0], "policy name")
        return CreatePolicy(name) if verb == "--create-policy" else DeletePolicy(name)

    if not args or args[0].startswith("--"):
        raise PolicyError(f"usage: policy-engine {verb} <policy-name> --dev ... --action ...")
    name, rest = _field(args[0], "policy name"), args[1:]
    flags: dict[str, str] = {}
    i = 0
    while i < len(rest):
        flag = rest[i]
        if flag not in _ACTION_FLAGS:
            raise PolicyError(f"token {i + 3}: unknown flag {flag!r}")
        if i + 1 >= len(rest):
            raise PolicyError(f"flag {flag} needs a value")
        if flag in flags:
            raise PolicyError(f"duplicate flag {flag}")
        flags[flag] = rest[i + 1]
        i += 2
    if "--dev" not in flags or "--action" not in flags:
        raise PolicyError(f"{verb} requires --dev and --action")
    device = _field(flags["--dev"], "device")
    action = _parse_action(flags["--action"], 0)
    allow = [_field(d, "allowlist entry") for d in flags["--allow"].split(",")] \
        if "--allow" in flags else []
    if verb == "--add-action":
        if action is PolicyAction.RESTRICT_TO_SECURE_DOMAINS and not allow:
            raise PolicyError("RESTRICT_TO_SECURE_DOMAINS requires --allow with an allowlist")
        return AddAction(policy=name, device=device, action=action, allowlist=allow)
    if allow:
        raise PolicyError("--allow is only valid with --add-action")
    return DeleteAction(policy=name, device=device, action=action)


# --- store -----------------------------------------------------------------

class PolicyStore:
    """Ordered set of uniquely named policies."""

    def __init__(self):
        self.policies: dict[str, Policy] = {}

    def apply_command(self, cmd: Command) -> None:
        if isinstance(cmd, CreatePolicy):
            if cmd.name in self.policies:
                raise PolicyError(f"policy {cmd.name!r} already exists")
            self.policies[cmd.name] = Policy(name=cmd.name)
        elif isinstance(cmd, DeletePolicy):
            if cmd.name not in self.policies:
                raise PolicyError(f"no such policy {cmd.name!r}")
            del self.policies[cmd.name]
        elif isinstance(cmd, AddAction):
            pol = self.policies.get(cmd.policy)
            if pol is None:
                raise PolicyError(f"no such policy {cmd.policy!r}")
            pol.bindings.append(Binding(cmd.device, cmd.action, cmd.allowlist))
        elif isinstance(cmd, DeleteAction):
            pol = self.policies.get(cmd.policy)
            if pol is None:
                raise PolicyError(f"no such policy {cmd.policy!r}")
            before = len(pol.bindings)
            pol.bindings = [
                b for b in pol.bindings
                if not (b.device == cmd.device and b.action == cmd.action)
            ]
            if len(pol.bindings) == before:
                raise PolicyError(
                    f"no binding ({cmd.device}, {cmd.action.value}) in {cmd.policy!r}")
        else:
            raise PolicyError(f"unknown command {cmd!r}")


def save_store(store: PolicyStore, path) -> None:
    lines = [STORE_HEADER]
    for pol in store.policies.values():
        lines.append(f"policy {pol.name}")
        for b in pol.bindings:
            allow = "," .join(b.allowlist)
            lines.append(f"bind {pol.name} {b.device} {b.action.value}"
                         + (f" {allow}" if allow else ""))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_store(path) -> PolicyStore:
    """The store that save_store wrote; DataError naming the file and the
    line for anything that could not have come from it."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != STORE_HEADER.encode():
        raise DataError(f"policy store {path} line 1: bad policy store header")
    store = PolicyStore()
    for lineno, raw in enumerate(lines[1:], start=2):
        try:
            line = raw.decode()
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "policy" and len(parts) == 2:
                store.apply_command(CreatePolicy(parts[1]))
            elif parts[0] == "bind" and len(parts) in (4, 5):
                allow = parts[4].split(",") if len(parts) == 5 else []
                store.apply_command(AddAction(
                    policy=parts[1], device=parts[2],
                    action=_parse_action(parts[3], 4), allowlist=allow))
            else:
                raise PolicyError(f"unparseable store record {line!r}")
        except UnicodeDecodeError:
            raise DataError(f"policy store {path} line {lineno}: not UTF-8 text") from None
        except PolicyError as exc:
            raise DataError(f"policy store {path} line {lineno}: {exc}") from None
    return store


# --- applying policies -----------------------------------------------------

@dataclass
class PlanEntry:
    device_ip: str
    action: PolicyAction
    policy: Optional[str]           # None when the default applied
    allowlist: list[str] = field(default_factory=list)


def apply_policies(store: PolicyStore, infected_devices: list[str],
                   name_map: Optional[dict[str, str]] = None) -> list[PlanEntry]:
    """One plan entry per infected device: first device-specific binding wins,
    then the first wildcard binding, then MONITOR_ONLY."""
    name_map = name_map or {}
    ip_names = {ip: name for name, ip in name_map.items()}
    plan = []
    for ip in infected_devices:
        specific = wildcard = None
        for pol in store.policies.values():
            for b in pol.bindings:
                matches_dev = b.device == ip or b.device == ip_names.get(ip)
                if matches_dev and specific is None:
                    specific = (pol, b)
                elif b.device == WILDCARD and wildcard is None:
                    wildcard = (pol, b)
        chosen = specific or wildcard
        if chosen:
            pol, b = chosen
            plan.append(PlanEntry(ip, b.action, pol.name, list(b.allowlist)))
        else:
            plan.append(PlanEntry(ip, PolicyAction.MONITOR_ONLY, None))
    return plan
