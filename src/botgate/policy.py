"""Policy engine: a store of named policies, each an ordered list of
device-to-action bindings; the argv command grammar that edits it
(``PolicyStore.apply_command``); its text file; and the detection-to-action
plan. The engine emits a declarative action plan; enforcement is someone
else's job."""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .errors import DataError, PolicyError, write_text_atomic

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


_ACTION_FLAGS = ("--dev", "--action", "--allow")


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


class PolicyStore:
    """Uniquely named policies, in creation order, each a list of bindings."""

    def __init__(self):
        self.policies: dict[str, list[Binding]] = {}

    def _create(self, name: str) -> None:
        if name in self.policies:
            raise PolicyError(f"policy {name!r} already exists")
        self.policies[name] = []

    def _bindings(self, name: str) -> list[Binding]:
        if name not in self.policies:
            raise PolicyError(f"no such policy {name!r}")
        return self.policies[name]

    def apply_command(self, tokens: list[str]) -> None:
        """Parse one command and apply it: ``--create-policy NAME``,
        ``--delete-policy NAME``, ``--add-action NAME --dev DEV --action
        ACTION [--allow DOMAIN,...]`` or ``--delete-action NAME --dev DEV
        --action ACTION``. PolicyError, with the store unchanged, for a
        malformed command or one the store cannot take."""
        if not tokens:
            raise PolicyError("empty policy command")
        verb, args = tokens[0], tokens[1:]
        if verb in ("--create-policy", "--delete-policy"):
            if len(args) != 1 or args[0].startswith("--"):
                raise PolicyError(f"usage: policy-engine {verb} <policy-name>")
            name = _field(args[0], "policy name")
            if verb == "--create-policy":
                self._create(name)
            else:
                self._bindings(name)  # refuses an unknown name
                del self.policies[name]
            return
        if verb not in ("--add-action", "--delete-action"):
            raise PolicyError(f"token 1: unknown verb {verb!r}")
        if not args or args[0].startswith("--"):
            raise PolicyError(f"usage: policy-engine {verb} <policy-name> --dev ... --action ...")
        name, rest = _field(args[0], "policy name"), args[1:]
        flags: dict[str, str] = {}
        for i in range(0, len(rest), 2):
            flag = rest[i]
            if flag not in _ACTION_FLAGS:
                raise PolicyError(f"token {i + 3}: unknown flag {flag!r}")
            if i + 1 >= len(rest):
                raise PolicyError(f"flag {flag} needs a value")
            if flag in flags:
                raise PolicyError(f"duplicate flag {flag}")
            flags[flag] = rest[i + 1]
        if "--dev" not in flags or "--action" not in flags:
            raise PolicyError(f"{verb} requires --dev and --action")
        device = _field(flags["--dev"], "device")
        # rest alternates flag, value; the verb is token 1, so rest[j] is token j + 3
        action = _parse_action(flags["--action"], 2 * rest[::2].index("--action") + 4)
        allow = [_field(d, "allowlist entry") for d in flags["--allow"].split(",")] \
            if "--allow" in flags else []
        if verb == "--add-action":
            if action is PolicyAction.RESTRICT_TO_SECURE_DOMAINS and not allow:
                raise PolicyError("RESTRICT_TO_SECURE_DOMAINS requires --allow with an allowlist")
            self._bindings(name).append(Binding(device, action, allow))
            return
        if allow:
            raise PolicyError("--allow is only valid with --add-action")
        bindings = self._bindings(name)
        kept = [b for b in bindings if not (b.device == device and b.action is action)]
        if len(kept) == len(bindings):
            raise PolicyError(f"no binding ({device}, {action.value}) in {name!r}")
        self.policies[name] = kept


def save_store(store: PolicyStore, path) -> None:
    lines = [STORE_HEADER]
    for name, bindings in store.policies.items():
        lines.append(f"policy {name}")
        for b in bindings:
            allow = ",".join(b.allowlist)
            lines.append(f"bind {name} {b.device} {b.action.value}"
                         + (f" {allow}" if allow else ""))
    write_text_atomic(path, "\n".join(lines) + "\n")


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
                store._create(parts[1])
            elif parts[0] == "bind" and len(parts) in (4, 5):
                action = _parse_action(parts[3], 4)
                allow = parts[4].split(",") if len(parts) == 5 else []
                store._bindings(parts[1]).append(Binding(parts[2], action, allow))
            else:
                raise PolicyError(f"unparseable store record {line!r}")
        except UnicodeDecodeError:
            raise DataError(f"policy store {path} line {lineno}: not UTF-8 text") from None
        except PolicyError as exc:
            raise DataError(f"policy store {path} line {lineno}: {exc}") from None
    return store


def apply_policies(store: PolicyStore, infected_devices: list[str],
                   name_map: Optional[dict[str, str]] = None) -> list[dict]:
    """One plan entry per infected device, as ``policy --apply`` prints it:
    the first device-specific binding wins, then the first wildcard binding,
    then MONITOR_ONLY under no policy."""
    ip_names = {ip: name for name, ip in (name_map or {}).items()}
    plan = []
    for ip in infected_devices:
        specific = wildcard = None
        for name, bindings in store.policies.items():
            for b in bindings:
                if b.device in (ip, ip_names.get(ip)) and specific is None:
                    specific = (name, b)
                elif b.device == WILDCARD and wildcard is None:
                    wildcard = (name, b)
        name, b = specific or wildcard or (None, Binding(ip, PolicyAction.MONITOR_ONLY))
        plan.append({"device": ip, "action": b.action.value, "policy": name,
                     "allowlist": list(b.allowlist)})
    return plan
