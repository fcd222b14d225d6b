"""Golden CLI answers: the sha256 of stdout and the exit code of fixed commands.

Every input starts as `regmod gen` output at a fixed seed, over F_5, F_97,
F_(2^61-1) and Q with 16 or 64 atoms; pairs, vectors and pieces are derived
from it with the seeded generators of `regmod.randgen` and the oracle's rank
profile.  The digests pin every passport, isomorphism map, basis and
membership answer byte for byte, in text and in `--json`, so a change to the
linear algebra underneath must leave them all unchanged.

Two corpora are also answered by `python -m regmod.cli` child processes, which
must write the same stdout and exit code and the same stderr as the in-process
call; so must an argparse usage error and `--help`.

Wider corpora pin the sha256 of stderr too: F_2, F_13 and F_17 with 16 or 64
atoms, ambient dimension n above and below the generator count m on F_5 and
Q, and `verify --seed 1 --cases 20`, each in text and in `--json`.

`python tests/test_golden_cli.py` prints every table for the current code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import subprocess
import sys
from pathlib import Path

import pytest

import regmod
from regmod import GeneratorSet, atom_rank_profile, combine, parse_module_file, render_module_file
from regmod.cli import main
from regmod.randgen import perturb_rank_profile, random_element, recombined_copy
from regmod.rng import SplitMix64

FIELDS = (("f5", "fp:5"), ("f97", "fp:97"), ("m61", f"fp:{2**61 - 1}"), ("q", "rational"))
SIZES = (16, 64)
AMBIENT, GENS = 5, 4
CORPORA = tuple(f"{tag}-d{d}" for tag, _ in FIELDS for d in SIZES)
FIELD_ARGS = dict(FIELDS, f2="fp:2", f13="fp:13", f17="fp:17")
# "-n<n>m<m>": ambient dimension n and m generators instead of AMBIENT and GENS
WIDE_CORPORA = tuple(f"{tag}-d{d}" for tag in ("f2", "f13", "f17") for d in SIZES) + tuple(
    f"{tag}-d16-{shape}" for tag in ("f5", "q") for shape in ("n8m3", "n3m8", "n8m8"))
VERIFY = {"verify": ["verify", "--seed", "1", "--cases", "20"]}
VERIFY["verify --json"] = VERIFY["verify"] + ["--json"]


def _run(argv: list[str]) -> tuple[str, int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return out.getvalue(), code, err.getvalue()


def _child(argv: list[str]) -> tuple[bytes, int, str]:
    """`python -m regmod.cli <argv>` as a child process: (stdout, exit code, stderr).
    COLUMNS fixes the width argparse wraps its help to."""
    env = {"PYTHONPATH": str(Path(regmod.__file__).resolve().parents[1]), "COLUMNS": "80"}
    run = subprocess.run([sys.executable, "-m", "regmod.cli", *argv],
                         capture_output=True, env=env, timeout=120)
    return run.stdout, run.returncode, run.stderr.decode("utf-8")


def _pieces(gens: GeneratorSet) -> tuple[str, str]:
    """The largest constant-rank group of atoms, and two atoms of it plus two
    of the next group: a homogeneous piece and a mixed one."""
    by_rank: dict[int, list[str]] = {}
    for label, rank in atom_rank_profile(gens).ranks.items():
        by_rank.setdefault(rank, []).append(label)
    groups = sorted(by_rank.values(), key=len, reverse=True)
    order = gens.context.labels
    mixed = sorted(groups[0][:2] + groups[1][:2], key=order.index)
    return ",".join(groups[0]), ",".join(mixed)


def build_corpus(name: str, directory: Path) -> tuple[dict[str, str], dict[str, list[str]]]:
    """Write the corpus's input files; return their digests and the commands."""
    tag, _, rest = name.partition("-d")
    d, _, shape = rest.partition("-n")
    d = int(d)
    n, m = map(int, shape.split("m")) if shape else (AMBIENT, GENS)
    seed = 1000 * ((CORPORA + WIDE_CORPORA).index(name) + 1)
    text, code, _ = _run(["gen", "--seed", str(seed), "--atoms", str(d), "--ambient",
                          str(n), "--gens", str(m), "--field", FIELD_ARGS[tag]])
    assert code == 0
    a = parse_module_file(text)
    # the last m - n + 1 generators (at least one) live on the upper half only,
    # so two ranks appear
    k = max(1, m - n + 1)
    upper = a.context.subset(a.context.labels[d // 2:])
    a = GeneratorSet(a.field, a.context, n,
                     a.gens[:-k] + tuple(g.restrict(upper) for g in a.gens[-k:]))
    # vanishing on the first three atoms gives a rank-0 piece
    live = a.context.subset(a.context.labels[3:])
    z = GeneratorSet(a.field, a.context, n, tuple(g.restrict(live) for g in a.gens))
    rng = SplitMix64(seed + 1)
    member = combine(a.gens, [random_element(a.field, a.context, rng) for _ in a.gens])
    # off the span when m < n; at full rank it can still be a member
    outside = perturb_rank_profile(a, rng).gens[-1]
    modules = {
        "a": a,
        "a_recombined": recombined_copy(a, rng),
        "a_perturbed": perturb_rank_profile(a, rng),
        "z": z,
        "z_recombined": recombined_copy(z, rng),
        "v_in": GeneratorSet(a.field, a.context, n, (member,)),
        "v_out": GeneratorSet(a.field, a.context, n, (member + outside,)),
    }
    digests, paths = {}, {}
    for stem, gens in modules.items():
        data = render_module_file(gens)
        path = directory / f"{stem}.json"
        path.write_text(data, encoding="utf-8")
        digests[stem] = hashlib.sha256(data.encode("utf-8")).hexdigest()
        paths[stem] = str(path)
    homogeneous, mixed = _pieces(a)
    commands = {
        "passport": ["passport", paths["a"]],
        "iso recombined": ["iso", paths["a"], paths["a_recombined"], "--emit-map"],
        "iso perturbed": ["iso", paths["a"], paths["a_perturbed"], "--emit-map"],
        "iso rank-0": ["iso", paths["z"], paths["z_recombined"], "--emit-map"],
        "member in": ["member", paths["a"], "--vector", paths["v_in"]],
        "member out": ["member", paths["a"], "--vector", paths["v_out"]],
    }
    for strategy in ("first_fit", "last_fit"):
        for kind, piece in (("homogeneous", homogeneous), ("mixed", mixed)):
            commands[f"basis {strategy} {kind}"] = [
                "basis", paths["a"], "--piece", piece, "--strategy", strategy,
            ]
    commands.update({f"{key} --json": argv + ["--json"] for key, argv in list(commands.items())})
    return digests, commands


def answers(name: str, directory: Path) -> tuple[dict[str, str], dict[str, tuple[str, int]]]:
    digests, commands = build_corpus(name, directory)
    out = {}
    for key, argv in commands.items():
        stdout, code, _ = _run(argv)
        out[key] = (hashlib.sha256(stdout.encode("utf-8")).hexdigest(), code)
    return digests, out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def wide_answers(commands: dict[str, list[str]]) -> dict[str, tuple[str, int, str]]:
    """(stdout digest, exit code, stderr digest) of each command."""
    out = {}
    for key, argv in commands.items():
        stdout, code, stderr = _run(argv)
        out[key] = (_sha(stdout), code, _sha(stderr))
    return out


@pytest.mark.parametrize("name", CORPORA)
def test_golden_cli(name, tmp_path):
    digests, got = answers(name, tmp_path)
    assert digests == INPUTS[name], "the generated inputs changed"
    wrong = sorted(key for key in GOLDEN[name] if got.get(key) != GOLDEN[name][key])
    assert not wrong and got.keys() == GOLDEN[name].keys(), f"changed answers: {wrong}"


@pytest.mark.parametrize("name", ("f5-d16", "q-d16"))
def test_golden_cli_in_child_processes(name, tmp_path):
    _, commands = build_corpus(name, tmp_path)
    for key, argv in commands.items():
        stdout, code, stderr = _child(argv)
        assert (hashlib.sha256(stdout).hexdigest(), code) == GOLDEN[name][key], key
        assert stderr == _run(argv)[2], key


@pytest.mark.parametrize("name", WIDE_CORPORA)
def test_golden_cli_wider_corpora(name, tmp_path):
    digests, commands = build_corpus(name, tmp_path)
    assert digests == WIDE_INPUTS[name], "the generated inputs changed"
    got = wide_answers(commands)
    wrong = sorted(key for key in WIDE_GOLDEN[name] if got.get(key) != WIDE_GOLDEN[name][key])
    assert not wrong and got.keys() == WIDE_GOLDEN[name].keys(), f"changed answers: {wrong}"


def test_golden_verify():
    assert wide_answers(VERIFY) == VERIFY_GOLDEN


@pytest.mark.parametrize("argv, code", [(["passport"], 2), (["--help"], 0)])
def test_usage_error_and_help_in_a_child_process(argv, code, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
    assert exit_.value.code == code
    assert _child(argv) == (out.getvalue().encode("utf-8"), code, err.getvalue())


INPUTS: dict[str, dict[str, str]] = {
    'f5-d16': {
        'a': '6bc048a200da4945f07d8855ba6ea4639fcd32a5be7158b63cc4a661fb4fa90e',
        'a_recombined': 'b0b42bfcde8a9e87775981ed19f7d2f4dceeb90b9dfaf62cfc07320ca1ca5398',
        'a_perturbed': 'c06cb73f935654b56a655331a028898a8937d6566b3390cae6630185c08a34c1',
        'z': '909cf2364f4450d549e546fe0d7e643b307682616d4329554285bc2ee9011263',
        'z_recombined': '20b723f52bd43b16f2426eb3233b9837f3edd78b6066a3d8ff02bd490a16529d',
        'v_in': '014517cf4994bf56d00c402e3124083bc95a69e1913551d7c5a118d62c9393fc',
        'v_out': '77298e5c3c54d44f3358e193a776b4c92f633f702400845f6e4a6cd754959da5',
    },
    'f5-d64': {
        'a': 'b52791e534aeaca0e894eeff1fc5278d070452f3557c842981dec10412bd8361',
        'a_recombined': 'a31bd4826214ac4e5e8f08cacfedf16290e6fdab191be15eb278c4e86a140a0d',
        'a_perturbed': '43932a3099d39801c45f716ca57fcd76163bd622e3a97ec2c4dc0f801e8d29fb',
        'z': '0c2be75445e2e3643af1bbc9f652f2121e7a19166130d4c0a8310487033e2439',
        'z_recombined': 'f0cc370acd4cad06906ef24dad280e05c219197e09ea3834208d28ab72c7413d',
        'v_in': '3558bc6a27ffd6c60e6989155a570d32e83512b84240009ec374c21cb8e86472',
        'v_out': '050ee48caed19bf38805fcbaed55d70e27e01072011a9737d9f016fec7cab86d',
    },
    'f97-d16': {
        'a': '63671a46d58857202c6ac4693a5a851aa520ba5c9f551bb46692f5277fd59d94',
        'a_recombined': '9a8ac5cc17044555fb9c12b0f79e73cd3de658cd5b277147ed07fb94d5d20086',
        'a_perturbed': '257140aa70d0bf589b338a9dc1760095b22a2b571b0b45c996cc3f380b38f982',
        'z': '807a696545d2fe99f65b3615cc6c860a74c3df4cda81a6ec82536e59c5273148',
        'z_recombined': '9889b08c8e981de8e3474edec65eb12c4c29cac49487c5f962522de396ee5d71',
        'v_in': 'a3900de533d569f41a37b67fd1a2d0d5eaaadaeb4af619b5bf7fee2245c2694f',
        'v_out': 'ccfef1c6a4c496a7ab7875ad3c42a46b7a389c2c3a508ef0c2d9a61c079a244a',
    },
    'f97-d64': {
        'a': '1b5433fd1d494caf6badc36ae35d5d279915151fcef2b478c37ecb5f384792fb',
        'a_recombined': '40b08ec8188b122584776a6725a25d8e1286a0533e8c8a2d98fc222edc09edb4',
        'a_perturbed': '82777d74220650a78fcb8587dbab898557f94206561d63c96d6058cce1927d95',
        'z': 'ea8bec4de5382f44d71f593b3ab589439f57ac6170e26fe2c770ec199f447b50',
        'z_recombined': '9f34da3727ad198025924f70f9827172827f2e6c3b96e07ca85bfcef9ca64c57',
        'v_in': 'ce2f9882d76b49ac6728ae4d4bfe3b64a85deafb713810f99b735bddd54bb4b4',
        'v_out': '0fe94cbe39491811ec9dec54d6a2766dcabdf149652bc91697c1b8385be82ce6',
    },
    'm61-d16': {
        'a': '5c274ac247916cd689d3fe123a368e67b0dfa51a6200504326c0f5471795f00e',
        'a_recombined': '058e0aec44afe7dceda7d1a6f9bfaed928090f4e1430b4b71fcac86d0337033a',
        'a_perturbed': '8932a3793752212ed9b1a27a094c277e79ac865da994def6b8964102c81afca9',
        'z': '441825315d7dcd7f50fbe85f2a5b8f8c51d4f6064f9224fe493163150fdaa3f5',
        'z_recombined': '36dd55adf2c10d53457b4b256f6dd8d314085f146053ec3fdee8ec7071fc68ad',
        'v_in': '99902a613832ed551bc9ae2101f6ba3152c67acc93d52f792e8f3ee433f56b47',
        'v_out': 'cf89696dae406d0494c4222ff9637206d2e1ece95998f6e2d55db5cdfc8f23a3',
    },
    'm61-d64': {
        'a': '9f14bff7b7ab0372df71a259346d4a770d4847a59ee8707807735d6a4114edd3',
        'a_recombined': 'b5df5ae8812e28acac62869c2a83b22e01f734105ca880b140914d4ddaad65ba',
        'a_perturbed': '7113d01077122af5942f840fbfe550adaa2dfcf832dc6c28b66549d36c066c3b',
        'z': 'ebc3c92145b886824c05c4e3f48a8a85eb75a4059ec28710a8c13de26e05d6ed',
        'z_recombined': '5450f611d2bf156b64d781b00bb306ea9ba22cc1e722b084c6f1e828d34eb93b',
        'v_in': '853f2238a2a728775245b7eb3f0a5ea23112d687b42a31f3e8dcb9923a0843b3',
        'v_out': 'f876ca63e71367ed6e743c966c7983a9c453d17e47f4ecd0185d28fba7b47715',
    },
    'q-d16': {
        'a': '030a81120618c5ec317e0687ed7b93d64dc91235ffada0ec0561074ee8535d05',
        'a_recombined': 'c6922227eef0d6e41fd75cec95b61c3fc0eb823ec22d4ac2365e80092ad86e93',
        'a_perturbed': 'e1b3453fcd92d53cb723dcf86cb00abf27530383fde24df99428cc762be41efc',
        'z': 'db4fa18d3fd7905365d1380974bd55066847f686310df8218fed858d1586bb52',
        'z_recombined': 'd6c5cdca3dcf3de2b0e993a035290171e3f1847d86368d9b0e15163704036aa3',
        'v_in': 'c3e00b446197ad6214d93063b6ec62a59966dcf207c856ec6c094a5492b7173f',
        'v_out': '72bb10f71744c83b0caf7e28aed24ab893123c90d83880f5a18669f3ba559814',
    },
    'q-d64': {
        'a': 'fe1392187d22c13c451cef537b3131da19ddf92877e206c7551e3e1062982675',
        'a_recombined': '800df3d3925746003797ffe07866060c00d812e44f735fe69adcc3f23350aab9',
        'a_perturbed': 'cbe808236c19b25bc4ac1741df60b2f40588c6ef4c53926a1d88579ba10be49f',
        'z': 'b558b1c8916662a8d6c3b678fa3193d95071c79c29c02e3f53913ba354040224',
        'z_recombined': 'f00bc9972a13ccf0bf2ce70dc18729d694dd4ce78fc86a9e010188985d1de449',
        'v_in': '5c676042799b461bbf54eda1a2b49f90d8b36e0b62a269d321470ecf315044a2',
        'v_out': 'e217034e3a382b202395617d356d1b86de1df29e44558e1c81d7b4d36a0ec8b0',
    },
}

GOLDEN: dict[str, dict[str, tuple[str, int]]] = {
    'f5-d16': {
        'passport': ('1d54f4c236588e0e0748c06021e26ca55ec4c65b9325899c43933ba82d5c8a80', 0),
        'iso recombined': ('f965ee524bff20a1c45cac454e61b0c7e24727e6b1056f44de662ec0dc9428cb', 0),
        'iso perturbed': ('4aadd8f8988e375bff5912eb74542707c1845a6768b620dbb769c617833ebcf6', 1),
        'iso rank-0': ('906db8a370f1a9309fb3d2f3404d6772da6a5c9720d6839c7916c6c016323471', 0),
        'member in': ('594744f65a252ae970b8189e38c02cf366fb7c6a5a155ee13761c6c7226ca20c', 0),
        'member out': ('e76584b90c8e85f083f9248e241e241a7fbe2b3d5f682c6eba2cd38f158286b3', 1),
        'basis first_fit homogeneous': ('5bc4ad35d1ce53c3c211b9290905dca26b531a5596ab9e76ee74cf4bf0da113d', 0),
        'basis first_fit mixed': ('ce5593128f2f0c6cf8dfb4921df77ccb3b0ede208f901f4bdb98a47bb856627a', 1),
        'basis last_fit homogeneous': ('3cd9f5dc76a0930982d556cecc50f618262b22aec2d76d0a09c787d73fe88d79', 0),
        'basis last_fit mixed': ('ce5593128f2f0c6cf8dfb4921df77ccb3b0ede208f901f4bdb98a47bb856627a', 1),
        'passport --json': ('a7655e4a134935c4553a6610eed4abbb6a258300b98d0cee8ccb5c11d43f85b3', 0),
        'iso recombined --json': ('1f5706b866aca092c4a31e92bcb336cd88bd2cf13257a0e9c9bc57e6e4b501c4', 0),
        'iso perturbed --json': ('4d2e2552a1179b30482e83051aa9ccc85723b44ff072c3c796b23a345fd0b054', 1),
        'iso rank-0 --json': ('e15b7dd84360317e2f8234acce361e4c350281d8a4bc5988fd8d7d1c66d9eda9', 0),
        'member in --json': ('89ee545a9793eb93a498a86499c2256b643ed697851e5adfad377018aef55566', 0),
        'member out --json': ('5f2c734227a26db21b613b0856ce10dd6b4ee8cdce5205892709e8120ba70ef1', 1),
        'basis first_fit homogeneous --json': ('c31c28ea73c77d29b44e60395c1470fd7c1d54f89b5560e43786a2e885167596', 0),
        'basis first_fit mixed --json': ('5417872fa85ad45eb6a7ce108ce06cd757a4c36d3547abb1e738922f93e25dc8', 1),
        'basis last_fit homogeneous --json': ('1553fc0dff9423f5f69a30b666b03d1c8a800e0633d84002634268f7b104c9d7', 0),
        'basis last_fit mixed --json': ('5417872fa85ad45eb6a7ce108ce06cd757a4c36d3547abb1e738922f93e25dc8', 1),
    },
    'f5-d64': {
        'passport': ('7d7850aa02f9dd5c1cacf0a2ed0de01ac9e92f5036826047f23cbff679b2d976', 0),
        'iso recombined': ('c95a4483ef045cd5bad0f3059a4e810f71e21e5f9fbc672eb3e2165430190190', 0),
        'iso perturbed': ('5c7dfc643060e3ae5b5d7a5fb5fe006c85e47b80e4bbb6da5f49ea2cdcbe2956', 1),
        'iso rank-0': ('906db8a370f1a9309fb3d2f3404d6772da6a5c9720d6839c7916c6c016323471', 0),
        'member in': ('6ddd8b4d96a0086ffda17c47e2f1610f04e3f81aae335e3441dee7d56413674a', 0),
        'member out': ('e03bc1e520628a69d10aadb996e3a80330414ac5ea6c8a7c7bbb33f8e7187592', 1),
        'basis first_fit homogeneous': ('1aa978fe4730be43242b9db09fc2f2fca15ffa50cbd33d24ff93de6b66bc90b0', 0),
        'basis first_fit mixed': ('addbf9ca6d5e45624c9226582e271f588e2d57fee077ba1173f7d152451df6eb', 1),
        'basis last_fit homogeneous': ('8eb14db275ff86bfa0cb6b4f9c3aa6d02d27838197662d41f53cac6922783cb8', 0),
        'basis last_fit mixed': ('addbf9ca6d5e45624c9226582e271f588e2d57fee077ba1173f7d152451df6eb', 1),
        'passport --json': ('e0370d288f77dc9cc0d55070ee0b17e50d242f70b96f7db36876afbe364aed3c', 0),
        'iso recombined --json': ('8b3867e6a2194e3f6539852da746a9eff57f05371ec8a0ed3224e8e4f79fe174', 0),
        'iso perturbed --json': ('d7c7e2b2d9299488600173f3cacc108746b9fe538485c9872bbe67632f217994', 1),
        'iso rank-0 --json': ('74b9299d30ba86fddb950e764da0432dccbd19f485f7a541eb451a4ca3dd0c71', 0),
        'member in --json': ('ab3cc6cc14f027b700b583f70720f4419ad4e113b36ac4fc9ecec52698599a52', 0),
        'member out --json': ('32c62fd8a167753e8eb7cbe1ab9661043bf6794968fc3adc1b5e7fab9169facf', 1),
        'basis first_fit homogeneous --json': ('df21d15f2b16d3b102f4b242272a5a69acc2a23344a4d6118592354abf0fe426', 0),
        'basis first_fit mixed --json': ('abb19e20713ceb3f05bccca8b9ab1da55d1d8c44d6df5e0920c0bb8029836a70', 1),
        'basis last_fit homogeneous --json': ('fc3cdb07eaf6d6730c52711a739667f6156a2030197a7abe85f63cb108ee8a7b', 0),
        'basis last_fit mixed --json': ('abb19e20713ceb3f05bccca8b9ab1da55d1d8c44d6df5e0920c0bb8029836a70', 1),
    },
    'f97-d16': {
        'passport': ('8c49130acb1ba6bf582d4a7b06b5ab64061fd7707c3e685579ef3e43719338f8', 0),
        'iso recombined': ('cfb5d8debf8c2777198a6caf7599480c704a257b974c73ceaefad7b13a3d62be', 0),
        'iso perturbed': ('029808fdce988c94f7de6baaa38ed37b826bc38ff8c6a8571f30eacdb29ce84a', 1),
        'iso rank-0': ('906db8a370f1a9309fb3d2f3404d6772da6a5c9720d6839c7916c6c016323471', 0),
        'member in': ('368a7b82d27e0fbb5713e73fe102dcf580078e1544f89543ad1afca8d6545eb4', 0),
        'member out': ('e76584b90c8e85f083f9248e241e241a7fbe2b3d5f682c6eba2cd38f158286b3', 1),
        'basis first_fit homogeneous': ('fc2524613bbac8e6c0f34a16701298a0339714ef5ea7b93abb24935aaec1ec2b', 0),
        'basis first_fit mixed': ('142c721b643e06a83eab2406820192cd437fa6bed15396c79740da4db3e3a26f', 1),
        'basis last_fit homogeneous': ('fc2524613bbac8e6c0f34a16701298a0339714ef5ea7b93abb24935aaec1ec2b', 0),
        'basis last_fit mixed': ('142c721b643e06a83eab2406820192cd437fa6bed15396c79740da4db3e3a26f', 1),
        'passport --json': ('ffa31c2726ca1b4a298fae4dc61c474d0b946ef50d3054a5ad9e243afea27cb4', 0),
        'iso recombined --json': ('528c1abac43fb892c0f81d4f02c8c9517a049cf486534a324844c588add57b83', 0),
        'iso perturbed --json': ('927f198700e6ea573592d09ad8ff741bcca0108c5cfea9e861d4a6d804e05467', 1),
        'iso rank-0 --json': ('1b083c83ef302e31bd39f1d74cdcf1e5deaaa6b6f97545d0c3d2aaa8ff5d93b9', 0),
        'member in --json': ('2549bb69749e0f99bd78ec46b89e1e6c5b7761f99a941c2b7914bfe32a3fbeee', 0),
        'member out --json': ('5f2c734227a26db21b613b0856ce10dd6b4ee8cdce5205892709e8120ba70ef1', 1),
        'basis first_fit homogeneous --json': ('e228a38726caa494c49ea2dba4d19b090fea8972c65e7ae5254d6cd73f983654', 0),
        'basis first_fit mixed --json': ('c98818c72840114f5672988d09dd3c6802ef392b8408aec90186fb6926abbe72', 1),
        'basis last_fit homogeneous --json': ('e228a38726caa494c49ea2dba4d19b090fea8972c65e7ae5254d6cd73f983654', 0),
        'basis last_fit mixed --json': ('c98818c72840114f5672988d09dd3c6802ef392b8408aec90186fb6926abbe72', 1),
    },
    'f97-d64': {
        'passport': ('98e08ec463378cd89fc3457a218cff11f036156dd5c9cef71cb25dfd5e1c9f25', 0),
        'iso recombined': ('b32050449e12124e0bae5392bbe3b995e2c9a1856ee8bcd97b3ede753767f9f5', 0),
        'iso perturbed': ('2eaaf8a70b4cfa9290ee833977e02e0bc9a7ae5a44bdbb84005b65200d50864f', 1),
        'iso rank-0': ('906db8a370f1a9309fb3d2f3404d6772da6a5c9720d6839c7916c6c016323471', 0),
        'member in': ('3e3692db0afdfe9d638623aac9dd9bc606f41204d1eb30d42f7b593c7b74f9d0', 0),
        'member out': ('9401fe883d17257c67f1c04cb5af1d604447f98e08ea75f33e6ab35266c172e9', 1),
        'basis first_fit homogeneous': ('0ab23d89b1df3bf93d6018c294151123be3d16e2213a7578937a2e4d74a3b550', 0),
        'basis first_fit mixed': ('0afeaa43f84bf6f49a37c5bf32d41501ad37c841798a45a1b35b12011d30ad46', 1),
        'basis last_fit homogeneous': ('0ab23d89b1df3bf93d6018c294151123be3d16e2213a7578937a2e4d74a3b550', 0),
        'basis last_fit mixed': ('0afeaa43f84bf6f49a37c5bf32d41501ad37c841798a45a1b35b12011d30ad46', 1),
        'passport --json': ('f6d394c4cc8a723618c748a061d4008722d9f5368fd766bcb859a7277a7de295', 0),
        'iso recombined --json': ('dadeb611c90d54e3ae1ff801b41071f01be99f86a04085fba59dcd6fe122bb1d', 0),
        'iso perturbed --json': ('07fbd3d9db9cfb6b5315fca4134599d14f6b55ff72b6d9fdbffafae5c2675402', 1),
        'iso rank-0 --json': ('2e0230177b5bccaadf53fe543af6591414d9175ac29bbfc1cb05608fe14c93d1', 0),
        'member in --json': ('efeb5f7698743c6b1f4110e4d0be1a083e5e56ca4dd2c131b512e155f6c3ed31', 0),
        'member out --json': ('19e995fa08c0f84dfaeb0b28170ad37588d5bf6ace2c9965c953588d4dec7f66', 1),
        'basis first_fit homogeneous --json': ('33703923ab307cc8d398949fd3c2292db42fb914ab768aa1c43c37aee07acd60', 0),
        'basis first_fit mixed --json': ('289d3e66205ab5ffee14f56538e0d532a8a20e67b790a80edbc87ca973b20c98', 1),
        'basis last_fit homogeneous --json': ('33703923ab307cc8d398949fd3c2292db42fb914ab768aa1c43c37aee07acd60', 0),
        'basis last_fit mixed --json': ('289d3e66205ab5ffee14f56538e0d532a8a20e67b790a80edbc87ca973b20c98', 1),
    },
    'm61-d16': {
        'passport': ('8c49130acb1ba6bf582d4a7b06b5ab64061fd7707c3e685579ef3e43719338f8', 0),
        'iso recombined': ('4f5458cb02002bfec66a4dcf818b2f5a69615d3e280bc2862a668c83738e8b4a', 0),
        'iso perturbed': ('fb86c1911b42801784454842c38b92559db0e0b656f16bfed719cce9d937e9c2', 1),
        'iso rank-0': ('906db8a370f1a9309fb3d2f3404d6772da6a5c9720d6839c7916c6c016323471', 0),
        'member in': ('16aafcdc6a410681a3d8a27e084e8776dbcd8a99889f3c60ff11d55363751dd6', 0),
        'member out': ('b9b14cd6ef15380f1d1898029f72b36e3efdc413a146de150e2361dafabaf382', 1),
        'basis first_fit homogeneous': ('5a3ad19a535828c613455c5da41b81fb16b018bd86434aed864f94ad734adf3d', 0),
        'basis first_fit mixed': ('142c721b643e06a83eab2406820192cd437fa6bed15396c79740da4db3e3a26f', 1),
        'basis last_fit homogeneous': ('5a3ad19a535828c613455c5da41b81fb16b018bd86434aed864f94ad734adf3d', 0),
        'basis last_fit mixed': ('142c721b643e06a83eab2406820192cd437fa6bed15396c79740da4db3e3a26f', 1),
        'passport --json': ('ffa31c2726ca1b4a298fae4dc61c474d0b946ef50d3054a5ad9e243afea27cb4', 0),
        'iso recombined --json': ('558f8bb836f95a9b31a5fbdff1ded5ef5ea94f9db946383e01d2872aeae116be', 0),
        'iso perturbed --json': ('a8d7aa84cdc6947c82bc9f039e6dfcbbf2da9ef71a47b65488add2d4edc3a309', 1),
        'iso rank-0 --json': ('1b083c83ef302e31bd39f1d74cdcf1e5deaaa6b6f97545d0c3d2aaa8ff5d93b9', 0),
        'member in --json': ('1164b80ae6af8fee207ef46ca45d89f30674f3c420d7eb70d08a5d4c654b96da', 0),
        'member out --json': ('e3d436db882d720d506f65099d4d58156e70479945864adf798b5d1dcfa4d38d', 1),
        'basis first_fit homogeneous --json': ('98c90df93f9a26cc864abd4eb0c8785ce8a652028e5f37aa89b4fdd885513743', 0),
        'basis first_fit mixed --json': ('c98818c72840114f5672988d09dd3c6802ef392b8408aec90186fb6926abbe72', 1),
        'basis last_fit homogeneous --json': ('98c90df93f9a26cc864abd4eb0c8785ce8a652028e5f37aa89b4fdd885513743', 0),
        'basis last_fit mixed --json': ('c98818c72840114f5672988d09dd3c6802ef392b8408aec90186fb6926abbe72', 1),
    },
    'm61-d64': {
        'passport': ('9d157ba86ff0ee4463614b0c41314456526ca3edea898548d5979a576a6aed52', 0),
        'iso recombined': ('29ae8775d57bbaeb4340ad51b96ab2cdac67dd9cf8ae8394b2712ff36665fb7c', 0),
        'iso perturbed': ('86121e509dcda5cc9687975ecff719ff448c5611a2a46df3f3b75fa817136e23', 1),
        'iso rank-0': ('906db8a370f1a9309fb3d2f3404d6772da6a5c9720d6839c7916c6c016323471', 0),
        'member in': ('3a6066964fd680d266700153c7889c69d12fc292f60e08c2656986fa15b6a091', 0),
        'member out': ('88fe69a22f8baa59a6b9b87a15995c5b9a41cf4a886a3c054a418118a8e9a117', 1),
        'basis first_fit homogeneous': ('78271bfac4754ed151c1fe62fa04cb29939fcf7a7a74893c197376afeb49c851', 0),
        'basis first_fit mixed': ('0afeaa43f84bf6f49a37c5bf32d41501ad37c841798a45a1b35b12011d30ad46', 1),
        'basis last_fit homogeneous': ('78271bfac4754ed151c1fe62fa04cb29939fcf7a7a74893c197376afeb49c851', 0),
        'basis last_fit mixed': ('0afeaa43f84bf6f49a37c5bf32d41501ad37c841798a45a1b35b12011d30ad46', 1),
        'passport --json': ('ec32313b2d4db26b3f6c92c33def13ea64b5ab82161c7129f125cf216828acc5', 0),
        'iso recombined --json': ('65d63872615d298c4d92e8853bbe29341dd0b1e374d002a5af58818714b9c56c', 0),
        'iso perturbed --json': ('0f2d64fc275473019190a20789eeed8d91952da7d664f150043a2b679dc76284', 1),
        'iso rank-0 --json': ('24de53fde1d44e8ae35c71cebd43f502b9fa3805947e35c1e02e3cb0054ed57e', 0),
        'member in --json': ('363cc506265460d3ca7819e297c115ec78d11b4a0fd7a0e6a681c0e33829d1eb', 0),
        'member out --json': ('6ba0a9f1056772ce2e381fd8b14c3c18f151677fb4c4dfad6b861b9b1faef5f7', 1),
        'basis first_fit homogeneous --json': ('237c2f36b40184135491bbdda3e3f1ae1b7834690423458183fb3a5a4453d536', 0),
        'basis first_fit mixed --json': ('289d3e66205ab5ffee14f56538e0d532a8a20e67b790a80edbc87ca973b20c98', 1),
        'basis last_fit homogeneous --json': ('237c2f36b40184135491bbdda3e3f1ae1b7834690423458183fb3a5a4453d536', 0),
        'basis last_fit mixed --json': ('289d3e66205ab5ffee14f56538e0d532a8a20e67b790a80edbc87ca973b20c98', 1),
    },
    'q-d16': {
        'passport': ('c757e75613b0334b6a079254a6cd43be6bedc66e4520213b70f3e382ffe55890', 0),
        'iso recombined': ('396c24f649c3e267c8050089c0861b0748d18c9faf778588783f39558bb902bf', 0),
        'iso perturbed': ('029808fdce988c94f7de6baaa38ed37b826bc38ff8c6a8571f30eacdb29ce84a', 1),
        'iso rank-0': ('906db8a370f1a9309fb3d2f3404d6772da6a5c9720d6839c7916c6c016323471', 0),
        'member in': ('6337ba9d5d622a183ba1b317bb266ebc3356c0dc7afa374c977dc40a81269047', 0),
        'member out': ('8a962467936fb537c24d91ac9e46d8c14689047bfb60b0050b4e131a85eb175a', 1),
        'basis first_fit homogeneous': ('f8710e3a5554acaabeeea4f6f8e3431e4734e65f4c05d959f72537f6cd4b29f4', 0),
        'basis first_fit mixed': ('e1a7436607c0477ce45d0e4a23283c97760ed0850d17020d81f07dc630efad7b', 1),
        'basis last_fit homogeneous': ('f8710e3a5554acaabeeea4f6f8e3431e4734e65f4c05d959f72537f6cd4b29f4', 0),
        'basis last_fit mixed': ('e1a7436607c0477ce45d0e4a23283c97760ed0850d17020d81f07dc630efad7b', 1),
        'passport --json': ('d70287adeb5be06dfdc9c9430b1ddcca64315936c22090389bfa07eb9d57c00c', 0),
        'iso recombined --json': ('9dbf72bae9eaf1125dc729f08673e6ecbf6a2b7bea12328ac4bb71d5402beeed', 0),
        'iso perturbed --json': ('81407deabad88310450d74bf198a89912960ad193b9bd15390fee364dfcc740b', 1),
        'iso rank-0 --json': ('8171a58630d01838cfcb26e002700932d1222d2aecc6466ae2121f7fc7af0e0e', 0),
        'member in --json': ('cbfdc8cb2cf1c5365d4da2209f46e5c6377cc0eb1d45e68e0dfbbcdc823e9b55', 0),
        'member out --json': ('89eeb4d15acfc11c863808f6fd67da22c6eb16294c5f867ee0701e65580b5a69', 1),
        'basis first_fit homogeneous --json': ('1db0ef6559b69403395ddd391b281d191836ed9886140791b9b3413285d3680e', 0),
        'basis first_fit mixed --json': ('edd28afd7510db0bfc9b683229678109dafbc831453055b1852d0735c850da0d', 1),
        'basis last_fit homogeneous --json': ('1db0ef6559b69403395ddd391b281d191836ed9886140791b9b3413285d3680e', 0),
        'basis last_fit mixed --json': ('edd28afd7510db0bfc9b683229678109dafbc831453055b1852d0735c850da0d', 1),
    },
    'q-d64': {
        'passport': ('9d157ba86ff0ee4463614b0c41314456526ca3edea898548d5979a576a6aed52', 0),
        'iso recombined': ('f64328f94a7735463645d33216e0f7bf16dff94a2a2dc076be1eb1f7a06104a9', 0),
        'iso perturbed': ('37253149b30c345073ac5a34c7c81134a1a2816294df25c291c4c5b1bd0a114a', 1),
        'iso rank-0': ('906db8a370f1a9309fb3d2f3404d6772da6a5c9720d6839c7916c6c016323471', 0),
        'member in': ('fd30896f23e753162f785061e19edea6370ea8e979adf6a20e308af8ebe667b4', 0),
        'member out': ('4883a7f1cdfdc96bd1473d59d3616474240b3c4049367f4dc662bfc71110c96e', 1),
        'basis first_fit homogeneous': ('a8828c098154df1eff0d4b201c8029add6caaa2f054a144c34cf64a6b37aca01', 0),
        'basis first_fit mixed': ('0afeaa43f84bf6f49a37c5bf32d41501ad37c841798a45a1b35b12011d30ad46', 1),
        'basis last_fit homogeneous': ('a8828c098154df1eff0d4b201c8029add6caaa2f054a144c34cf64a6b37aca01', 0),
        'basis last_fit mixed': ('0afeaa43f84bf6f49a37c5bf32d41501ad37c841798a45a1b35b12011d30ad46', 1),
        'passport --json': ('ec32313b2d4db26b3f6c92c33def13ea64b5ab82161c7129f125cf216828acc5', 0),
        'iso recombined --json': ('73b69eb9f0e83aeffa1c650ff8152e80df3263647868a53478715792729f94d7', 0),
        'iso perturbed --json': ('38a983878ed4b0be49367d792a753114ed27653845627f73ad93c96ae92cd313', 1),
        'iso rank-0 --json': ('24de53fde1d44e8ae35c71cebd43f502b9fa3805947e35c1e02e3cb0054ed57e', 0),
        'member in --json': ('c475e78d77213a7ff21c45cbf4a7b348e14544345db691fdc9cdcd0040726490', 0),
        'member out --json': ('e77df7d815752670965031d7d96e0d0c707025e4bd87ad25d1b21f2c6c7253b7', 1),
        'basis first_fit homogeneous --json': ('3fa11bfbaf402bf9cf5685a1437d3ca13bb80f1376964954512b3c97aecdc95f', 0),
        'basis first_fit mixed --json': ('289d3e66205ab5ffee14f56538e0d532a8a20e67b790a80edbc87ca973b20c98', 1),
        'basis last_fit homogeneous --json': ('3fa11bfbaf402bf9cf5685a1437d3ca13bb80f1376964954512b3c97aecdc95f', 0),
        'basis last_fit mixed --json': ('289d3e66205ab5ffee14f56538e0d532a8a20e67b790a80edbc87ca973b20c98', 1),
    },
}

WIDE_INPUTS: dict[str, dict[str, str]] = {
    'f2-d16': {
        'a': '445457ec757defcfe9dc9bebe0de10a035f37249517f34a4d0e6d6d3706b5829',
        'a_recombined': '6a911913c76c53a07cfbd0cb30280f31af295e4c91e2007ec03ea71b19964200',
        'a_perturbed': '027271bf7bf915bde5f55823a32ae22e54b366b0c5b07aca15f50aa57f0712e5',
        'z': '45eb3b66cfffa8c6be8ba3a9075fdf09ab8232127cc00f94798a70963bf7a26b',
        'z_recombined': 'ad9a9ed37566ca4602a38dde7d89b509d20171212fbef7919d4c8243541538df',
        'v_in': '7669b0709eea98d1ba8ed930089dbfb4e66993204d285d8fe732b971cfdf8287',
        'v_out': '904a423f70cdb005332251771f612b9f73fa8acc2a2cbfea95e61a306fb26bb2',
    },
    'f2-d64': {
        'a': 'f0c3a97740e60b331f127adfb3392494985c87c2199ace0d2ca539bdbba3b980',
        'a_recombined': '0005090950251fb58ff21c7e0ad32cb187b747165afe5fd45735893b1f59acbc',
        'a_perturbed': 'a36ad3abd01acb4feea9b2a2cc840f5b31a0eb6346fab07c52c16fcd1388fd35',
        'z': 'e236fe812875b0ed70dc842d79441ef720e42efb92809a00a3ad10d8854724d9',
        'z_recombined': '9c12c8f48df94fba69dcfdd7a59829d865422d13a48fd303713273953873fc9a',
        'v_in': 'a99d5e521759b55ed353fc7e698d9f0cfc388d34359ed835c8a82b4b97869283',
        'v_out': '47df8859a9bcfc48ef9a6fde664dc9284a6a1eff1a35a348a7f8d780bb1f3f40',
    },
    'f13-d16': {
        'a': '03227471f6d43bebdc5471d9bf750ce97e14e8b5ce931be83c672589431bd743',
        'a_recombined': '8b6f20d806209dce69909eaf422ab0cf8e98f3427eaac03294054343b78f7dc7',
        'a_perturbed': '5b7b23eaeaa9b40f96a78f7720de82696ca14bee777bbbe9eedd1cb836ab95b2',
        'z': '4f5db7c42461b64fddcd9e2b5f794dac237fb96f370a7ff4fbc8bbc7bad497e9',
        'z_recombined': 'a7e615b679f232ab24bc84ef09c51bceb06607d979ac8d3533399c33a279b072',
        'v_in': 'd20d7846bbae2239738e19ac3b81207165199af96d6352385742a46b7a3f5bed',
        'v_out': 'acc1974076a3bbb78e310995ada4a89a04bf0465a010110140e65018add2457d',
    },
    'f13-d64': {
        'a': 'e2b74814dd07d33e96ff451570792fb567db24339137c50c34481826760d6a62',
        'a_recombined': '3db205b0379eda5982242148b639e14c5c9437cc130df03f583bd002bbbebc01',
        'a_perturbed': 'f04372f9b7774d880fa3db5a36207c9a223ac87c58ea196330bdb36428e8dbad',
        'z': '40d2eeffa8a6c7e34f65dc0232ac95c039abf93f010e58cdd7af90becd963089',
        'z_recombined': '8e596d9c4e7add30b740bc5de4f551b39ebe677aee109949e3f00ef8a4dd24f7',
        'v_in': '5431e4311479891911f02655e2b16031ce5868931368c8ced7bef127724fb4dc',
        'v_out': 'a7c1f40d3454bccf998e472462ce57e9e69b6fd588fc476c78da4a8e5c1d6c01',
    },
    'f17-d16': {
        'a': 'b90df17f8e2d28c22338f262e64fa3467692833da1afb7c3922dcecaae6744e9',
        'a_recombined': '04ccf59619169fa6095a7a1e6fa1efef8979600a2a22ea9b37e678973d27d372',
        'a_perturbed': '693070a4cf1bfd79b74fb82f9d544035475f29bb9cc8e713f52579f37f190187',
        'z': '39999e11538a2e5ff40f50354f406cabc6da96551fa507de1d8701bf36ff8d25',
        'z_recombined': 'db5a25c1b374e94b3ee70a12dbe4aababaf5cd3ede2b66376c277a774445de8f',
        'v_in': '6e843f5b7053d9eb9c3a6a93b89a801bd33bf83de30b0dac12344b0900b4ea5c',
        'v_out': '1a7fad3b39b112187134c2eb90f7e0b925d0300909dcafa820647c9fe8edf18a',
    },
    'f17-d64': {
        'a': 'efed2c9e32bb35ae27ac8a435cd8642b6d7bc43c3453523a4ec92e2ece35b646',
        'a_recombined': '84f5a5b843ffb08af7dfea07bec2e1b7270122e728bc4646665de60fef177b99',
        'a_perturbed': '1bafb251d9f9048c4dc536464c62eb8fea412e3b75b731d577ec74eca1ee9cd7',
        'z': '597d9f288fe3b1953136229d4381d73b5be349f8e5deea1a1074b7ad2ac452a2',
        'z_recombined': '7448bf3f90a8cffe51345a55d2fe04de1a52a5ccc4d4074ff3479b1472f71ac2',
        'v_in': '01e7258e087a88b4c0598c0906fffd33dd5c1a6afb15b2b14d7bd328c575deee',
        'v_out': 'eb61d7b27e7cc802ff4f4aa5dc9be5c415c08629908700f0c40fc2a37eb400de',
    },
    'f5-d16-n8m3': {
        'a': '963546f14fe79b6e87afdc52d68a0afc78fee8b975d35c9e4397b03950c4744c',
        'a_recombined': '5a20554fcae40a9f91c4d806147d05218b1349c077dceffa0b3101370bac9b68',
        'a_perturbed': '8d54407e8508fd3cfba357dbb8f08325d9b28dd5a52750af54911235f8663533',
        'z': '1183914543fd940755812bfd2733c96ce8ddd0a5a4e6fd25a0f3ef4e5c56be85',
        'z_recombined': 'c17c3bcf9fe2b9967211d782b87d4c0856a588887ade7b5cbfcc7f3067b6f858',
        'v_in': 'fab5592d8a22d5f85910c16c5296a5b6e85655be9a190cce1d7ab86f5523bd67',
        'v_out': '076d7a650d4f4f39d50645bd92c4dc42f438b7b26330ef753993ef11920a007f',
    },
    'f5-d16-n3m8': {
        'a': 'bc663d0577ea4d872b7e9ec79ea1be80ddaa44edc3bef1e813a1e64e4f591a79',
        'a_recombined': 'a8788a719eb8f5efa0dff7229cee581e30d1627f1e2f9e0be24209fc9520b9cc',
        'a_perturbed': '54227ac2c69749ec52454dfaecd020f0d1bc0b737b2bb7248c55bdd5b143e30b',
        'z': '1cd82a4c714c2dd134f4ac11f4df637415c9faab3cafce50622854dcfef86fad',
        'z_recombined': 'c87963f7cd2f7ea39a9d406eb2ce222792c35bc125458d2542963d09fe0e7d86',
        'v_in': '9ff1486b4e6d499e79cf14025ec72e40a6047bbdd422d8ba5d491d8c42f99187',
        'v_out': '02042b5218829f6f78da9b712727cdd49214649ac791ee936e765dbe80fbf305',
    },
    'f5-d16-n8m8': {
        'a': 'e146542defb95ea61e03bf32115646950b71aed8e54589afedca4dc22bf38f44',
        'a_recombined': 'b067406af8083f2beb3c4106363f3eb4421d897369a47f244c3d86f40f302ce1',
        'a_perturbed': '006f3b15f11365976cdba990df11a8521f2a31e60cc9d13239bc4073f514c8a6',
        'z': '501cdbc544adf8969a865151494a9699918aca0af6749bc8ec0dab9e7dba06fd',
        'z_recombined': '1b2e1e7dd682ed9243dbf57ef189645a4f505f1f8a1532db629ccdd5d7bab91a',
        'v_in': 'fecbf881e3654653ebdb63f98c2e76bf444020c46a44439b572abef9981996d9',
        'v_out': '7bf2360938e7f17e7d9b0f37c9abd9eaba18965eb45c7f25b2a56b6eb6b24f26',
    },
    'q-d16-n8m3': {
        'a': '462d890026bf1e96779774ea354a6dbc3e57004a68da78c1402bcb78e02d46a2',
        'a_recombined': '61b277d575c5d619707e9420e25afab4fe54b2a216eae91f3b8252e77a61c8a8',
        'a_perturbed': '2855622b376369f44b639d3e6645252c564a2fb61cbaf69dd411218922889812',
        'z': 'd3474826c1fa821e6c492b39784dba3ccd80711b1f63785b1a10e5f160df9b65',
        'z_recombined': '938145f35783a634b3cd787707a54ca11ee4cdc9f07461b57031139fd5065317',
        'v_in': '6ad1e9c9fb879a6351ecb9d3747a3ded0e1817a8c0223320045f57fb374ca61f',
        'v_out': 'd8946a2b15603714f6b9748ab9c9b78b8d706d454ae3f010311233c9f2dee091',
    },
    'q-d16-n3m8': {
        'a': '1690ac7f81f3876c3e8f18577f15ae9b283fc618a42a0ce1abdd3fc23a2e105a',
        'a_recombined': '09d5c5b276cf440b56fa171205ec4aa704cb3b1110046a552b45715de7479675',
        'a_perturbed': 'e6b7e6d4041527472e72c50012cc31e7addd1882157e168f8216f86474728f37',
        'z': '8a628c356fe132b5f393d4d5819daeffc96f700590c45f141af814daafc37baf',
        'z_recombined': '7dc89a907791fe53aece7040355c26d362ec879a4385d4e40bd4f6e6a307dcc9',
        'v_in': 'cbb5e07f2cab874dd6d18327ea8f091700ac9a72329fbe670c4c897cbacb895c',
        'v_out': '222a62482b2cbfa64f5045a4a5481d6a8ddfaf68fe3ab1c6f163866d045e3126',
    },
    'q-d16-n8m8': {
        'a': 'fa96958337d09cc3ba5212221ce13a73c58d7e92793db16ae3471e8332ca092c',
        'a_recombined': '34f0a07be14fbb2d476ee57d164119a441d0fdff6aac4867f3f8d390d754b774',
        'a_perturbed': '34feb0a8cc7b1a12cdce37083c459cccde0c10a20c1b8f8a97dc932695614432',
        'z': 'a5b4fe72e81fb91dcd29717e5e6e8208b09e50817d7cdf4af4e29a0c5e8b9e49',
        'z_recombined': '2a767ed62f23570bcb4371d31399199fffea637eccdbae40ca2578e2457ebd2e',
        'v_in': '709c2f972fb68e0de4a76bb77fe6f0df45a40275024696f30e87d4b1331c08e5',
        'v_out': '4d2d754b898ccacdd7291365e85fcc10354f65c85529108e76c84a693df0c2f7',
    },
}

WIDE_GOLDEN: dict[str, dict[str, tuple[str, int, str]]] = {
    'f2-d16': {
        'passport': ('ccdf17cab4ee8cee1bc096cf7b4785fe9292d0d567e5391013e964b728e5f845', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso recombined': ('c6416a439f94dffbe7e43f9689d7c9906a8545b0bb6efda4350aa855f0eff380', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso perturbed': ('05847377ca4f1060d7801dcc2881ccc6d491037593134623d448a934ccbfd009', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso rank-0': ('906db8a370f1a9309fb3d2f3404d6772da6a5c9720d6839c7916c6c016323471', 0, '59f40e660104ed8b8c82375fb0c84c83520620688fdd6ef967cfca0014c12887'),
        'member in': ('25f24fbbd8f5c3a0d2c8746b45c1fe3b2193bc511742f9b18cf74e9d9e10e6ed', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member out': ('457bc4f8e76960329cbdc02957dfb582e0422ee7a79e01e419c0b17372d63b19', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit homogeneous': ('14d0808c5833fb217185139022eb3085927db4022471b8ecd7291d52a12ba979', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit mixed': ('83eb0c450f114e3dc594dcf04d6d03c8be5ff56e438f24c23cce8af4e9cf9a82', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit homogeneous': ('dd6326a4e4ae1bf8bceb4999c0b1b6d7e04524be2bf843007d8b9750d79cf79a', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit mixed': ('83eb0c450f114e3dc594dcf04d6d03c8be5ff56e438f24c23cce8af4e9cf9a82', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'passport --json': ('f0f23d33d408ed0c1b086e632eac878c41088c1b29517142d79699ca3243ca6d', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso recombined --json': ('a6787d88a47abd3c5e8bd81d993fbed0923ad65df814be81346eb8da5999e584', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso perturbed --json': ('a28edc8c7031f741814ab17afdb18b6cf6cc90e0f6ec42638d1a71c84e01f2f5', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso rank-0 --json': ('41a6150d4d5c8279fd0cdfc01f405b9363bd3c10925ab40b5fdc65586c2681f6', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member in --json': ('1b15d5927223ad9d5446e3a52f722bd50b73f59b81e8dcc6b3f00e6e6f6e391e', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member out --json': ('199e984108c8a3a62e58a3acd0dabe9c71b17968de409376370a450cf2ed1035', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit homogeneous --json': ('3747b25def958ab17f4a9426c0c2f23205caa50e555214d18d0d11da7a3116b2', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit mixed --json': ('ba528dba78786cdd2ac778e25196ff2bcc68fe9f21caaadb8a97a0de4b49ec77', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit homogeneous --json': ('adad4659a5fd32849c35308f41704fcda3c630b6e555cf98e18a218d1db7f835', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit mixed --json': ('ba528dba78786cdd2ac778e25196ff2bcc68fe9f21caaadb8a97a0de4b49ec77', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    },
    'f2-d64': {
        'passport': ('641d3dcd0e8489990ece2a1a714ebe3cc74a64caa581d839c23c44c8879b0669', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso recombined': ('e4e730f0fef18b7c0f0e1cc95fda4a5039883faba24af28d94ae5f278b21f5cc', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso perturbed': ('b39f1c78a52f5d8c0b766f28d1a09856e7f52674f7881de1b4d3d4a6452759c2', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso rank-0': ('906db8a370f1a9309fb3d2f3404d6772da6a5c9720d6839c7916c6c016323471', 0, '59f40e660104ed8b8c82375fb0c84c83520620688fdd6ef967cfca0014c12887'),
        'member in': ('1c64d6bfc6177c9651e1f39c7f25a375d5afda9957e340a7690f2c4090783b5a', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member out': ('185bfc4097514135a7450403debfc9fa6c3ac4b18c7fd8302d4e6996a25e13f1', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit homogeneous': ('0089f2eab6559107c0453a3b013c96bcd470acde74d27181ca44ed0495895bd8', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit mixed': ('79f8810afc485aaf94c4e98f61b79281dcff450e639812955ec1d41a7679550b', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit homogeneous': ('baf506d9e3ca853466ac77902b9917db891662b580cbd172e7c4a36f9f442078', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit mixed': ('79f8810afc485aaf94c4e98f61b79281dcff450e639812955ec1d41a7679550b', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'passport --json': ('9cc8388ff6cea9c7e22abb862992a21c9f4ebc452af931b2c13215a7f5386835', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso recombined --json': ('bed1f6fa71890a24e41fbe7f3538ad6fa50ef312772be2397d2b355f4d8fc14b', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso perturbed --json': ('c3a2ed9a61a8a76ffe525721b74d78116325b4192f3200e99b736db558bef667', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso rank-0 --json': ('b01f5a453dad5440726fa35d69eabed2ae8489c0be9b1d026959721232f857dd', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member in --json': ('13d17b4dc61ca6ab2ffa357a33772f0a6bc52284657e8a18f5b43b91017143a0', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member out --json': ('592d6750a4effd84aaa4b6058315c3e9122ddc2ab0a1f513d451187fd8c89045', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit homogeneous --json': ('4ccb84a439dedcf895c030221a3f7ed3ef01cbf46e9569ca782651796e6924be', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit mixed --json': ('b2190d18c35ec1c59249b89c505b9e98f4d633b7cdc2a6afb92d82f27a370f94', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit homogeneous --json': ('aeb41e7b88a0e65cf1c3247aa4f3f282de8a655206ddb22b7a47470ac7bf49ca', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit mixed --json': ('b2190d18c35ec1c59249b89c505b9e98f4d633b7cdc2a6afb92d82f27a370f94', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    },
    'f13-d16': {
        'passport': ('8c49130acb1ba6bf582d4a7b06b5ab64061fd7707c3e685579ef3e43719338f8', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso recombined': ('ef20d2016f3b3f6954c4fdc4995e2e2fc3e97cb633bac8581307e4f4bcb8eceb', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso perturbed': ('ec0b7b9f304863104c450a070e4315c9567ebcd798fe2824b98ab77097e13c6b', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso rank-0': ('906db8a370f1a9309fb3d2f3404d6772da6a5c9720d6839c7916c6c016323471', 0, '59f40e660104ed8b8c82375fb0c84c83520620688fdd6ef967cfca0014c12887'),
        'member in': ('f8429f604c7c4dedceb8690bec5c375ef72e614d309430f5d597f478627398a9', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member out': ('ec725553ac623c0f2a4b20673a0d44aee52b6ac64de0d38de150d31c941d3b47', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit homogeneous': ('96229fc3965ab6c050b940e9034a1a55477520e0cb68a2c40c7ab2b1c12f037f', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit mixed': ('142c721b643e06a83eab2406820192cd437fa6bed15396c79740da4db3e3a26f', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit homogeneous': ('96229fc3965ab6c050b940e9034a1a55477520e0cb68a2c40c7ab2b1c12f037f', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit mixed': ('142c721b643e06a83eab2406820192cd437fa6bed15396c79740da4db3e3a26f', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'passport --json': ('ffa31c2726ca1b4a298fae4dc61c474d0b946ef50d3054a5ad9e243afea27cb4', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso recombined --json': ('565487970548f8db17d44f0a8fb32a0d05bd649f498e7c0c63120606438b9802', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso perturbed --json': ('9e0a3b1c824ddf7101cd64047b0a37f088d39a0d489c2e0185e252b88c0ba24a', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso rank-0 --json': ('1b083c83ef302e31bd39f1d74cdcf1e5deaaa6b6f97545d0c3d2aaa8ff5d93b9', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member in --json': ('b7b7fd085c8ef69e8dee5e3a989a1b75e55b70ad37db388dcd0a97a5350a1d0e', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member out --json': ('53499f8476f7d688b084d1152f988e727aebb337ecfb2b9e4090fb8227256caa', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit homogeneous --json': ('06d2d782cc1e486a84f12a6548cf1506bec7d79f8e95fd24c8a1ded309b4bf98', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit mixed --json': ('c98818c72840114f5672988d09dd3c6802ef392b8408aec90186fb6926abbe72', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit homogeneous --json': ('06d2d782cc1e486a84f12a6548cf1506bec7d79f8e95fd24c8a1ded309b4bf98', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit mixed --json': ('c98818c72840114f5672988d09dd3c6802ef392b8408aec90186fb6926abbe72', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    },
    'f13-d64': {
        'passport': ('a1970b19a0702a830e23528764ef17ac2c2652a91b64ab64743fd00bc16df2b2', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso recombined': ('443b13f0aced01955ea009c4bb9ca013ceca07bff7e5e34efed6dfd831206111', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso perturbed': ('b5fadb9541168d47d4df4c34aebaea4acfd1ced404a6593b66f8e938973e3715', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso rank-0': ('906db8a370f1a9309fb3d2f3404d6772da6a5c9720d6839c7916c6c016323471', 0, '59f40e660104ed8b8c82375fb0c84c83520620688fdd6ef967cfca0014c12887'),
        'member in': ('a9d1eddd85691f3b2cbf7b80342fd67b14bc80100c2b1968f95e8f0ee6617591', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member out': ('c18be93278f35c59c6a479a76620317a59cca820036ce7b37d247941c811d699', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit homogeneous': ('acbd598fa01e6269e71c25a7b51d7b07f5e77deb7145e49940c3bf41a60796d4', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit mixed': ('0afeaa43f84bf6f49a37c5bf32d41501ad37c841798a45a1b35b12011d30ad46', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit homogeneous': ('7dfce051c104659b5e012172f2d705a28c1531d003cc3fcf21917ce97f249d19', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit mixed': ('0afeaa43f84bf6f49a37c5bf32d41501ad37c841798a45a1b35b12011d30ad46', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'passport --json': ('21feb4521b87f6b3339c84138cb6c553815c51559f69e13f022f576acdfd58d2', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso recombined --json': ('ca92de46c89a7b18297cffba487f74e840bcc16967f724cb59b2f108d9542437', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso perturbed --json': ('818f4cc289c9c82c66944eac49671529b36839163bb2d466b7f3ac808aa02180', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso rank-0 --json': ('d0a8b17bc1ff43eefed52009d98ab20efa86e720a413a7117bb2b1d7c76c536d', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member in --json': ('2d989479f297a4adb5d14343bda073455bbcf60ca63ef581474e6f6a00247b59', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member out --json': ('4837dbc62c8903f2d47a2f3cbd73539ef034995871845bc9924f7c2fa23b378a', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit homogeneous --json': ('715e7ef52be087957f2c4e20adb0374580696c585ba2d71868acc4e3188811db', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit mixed --json': ('289d3e66205ab5ffee14f56538e0d532a8a20e67b790a80edbc87ca973b20c98', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit homogeneous --json': ('f584fe57dc2048abf5745c37cbea593f70a629b734de6b0b51382945debfdf0e', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit mixed --json': ('289d3e66205ab5ffee14f56538e0d532a8a20e67b790a80edbc87ca973b20c98', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    },
    'f17-d16': {
        'passport': ('8c49130acb1ba6bf582d4a7b06b5ab64061fd7707c3e685579ef3e43719338f8', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso recombined': ('72a73bd2deddda9ffe16c94ca61722286419ef500bfc9578ac34d5f5aca64f97', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso perturbed': ('21db278b003f1777e847e34ec4645a36016eeca32dfe3c7802c6f058ecb46d78', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso rank-0': ('906db8a370f1a9309fb3d2f3404d6772da6a5c9720d6839c7916c6c016323471', 0, '59f40e660104ed8b8c82375fb0c84c83520620688fdd6ef967cfca0014c12887'),
        'member in': ('ccec826587f451a39ad80f701399bad186537c42c97234943f8f9fabd7479358', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member out': ('138c91d63af92e8744cf4847810a747b9b14668c49555e26640f03f02a15cd2c', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit homogeneous': ('46ad03579718f74e88002a2e813c4704fbbf68ec9bf48bbdbeed60c04eed87e2', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit mixed': ('142c721b643e06a83eab2406820192cd437fa6bed15396c79740da4db3e3a26f', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit homogeneous': ('46ad03579718f74e88002a2e813c4704fbbf68ec9bf48bbdbeed60c04eed87e2', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit mixed': ('142c721b643e06a83eab2406820192cd437fa6bed15396c79740da4db3e3a26f', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'passport --json': ('ffa31c2726ca1b4a298fae4dc61c474d0b946ef50d3054a5ad9e243afea27cb4', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso recombined --json': ('3e4d22039954922e33c136ea55fcb243482d28045ad453013869d484b5fb7f2a', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso perturbed --json': ('58281e5fb6fbb68a88da58f605b1f2649685238a413a81c2f4084a5aa5f088b0', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso rank-0 --json': ('1b083c83ef302e31bd39f1d74cdcf1e5deaaa6b6f97545d0c3d2aaa8ff5d93b9', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member in --json': ('b9e9c630f1319503666de7bc84cd3a4ba7d610af91d2e994adffe1913e7b8d82', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member out --json': ('08583777bc3115406bf8e8498f9b8666acf313015d411d0e43ad60d012f91e3f', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit homogeneous --json': ('f027af6b7d160b0362f34dea1157ab112993ca8f1dd901ceb75e8cff9982a455', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit mixed --json': ('c98818c72840114f5672988d09dd3c6802ef392b8408aec90186fb6926abbe72', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit homogeneous --json': ('f027af6b7d160b0362f34dea1157ab112993ca8f1dd901ceb75e8cff9982a455', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit mixed --json': ('c98818c72840114f5672988d09dd3c6802ef392b8408aec90186fb6926abbe72', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    },
    'f17-d64': {
        'passport': ('9d157ba86ff0ee4463614b0c41314456526ca3edea898548d5979a576a6aed52', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso recombined': ('66a1784daf83ce1b26c628c3b7ee1227e49fb934e80fe8ef2bac8d3b1321f53f', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso perturbed': ('c006f99df9ad20a563eca65c3fb06edfc43edf91d9a7bf4eb261504cb18ff587', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso rank-0': ('906db8a370f1a9309fb3d2f3404d6772da6a5c9720d6839c7916c6c016323471', 0, '59f40e660104ed8b8c82375fb0c84c83520620688fdd6ef967cfca0014c12887'),
        'member in': ('3dc808e6b95250c5756f96fdc468adb6f4b363ee5b267630340aa0b938775cca', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member out': ('185bfc4097514135a7450403debfc9fa6c3ac4b18c7fd8302d4e6996a25e13f1', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit homogeneous': ('249492bb47fda74d36b6efee1d802455f8ce8d07e4649d1a54b36387929196d8', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit mixed': ('0afeaa43f84bf6f49a37c5bf32d41501ad37c841798a45a1b35b12011d30ad46', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit homogeneous': ('249492bb47fda74d36b6efee1d802455f8ce8d07e4649d1a54b36387929196d8', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit mixed': ('0afeaa43f84bf6f49a37c5bf32d41501ad37c841798a45a1b35b12011d30ad46', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'passport --json': ('ec32313b2d4db26b3f6c92c33def13ea64b5ab82161c7129f125cf216828acc5', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso recombined --json': ('7c2ca08e44b8ed3c9c7d868254c5cbf064a7c99151b7f0196e82dd06ef1672e6', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso perturbed --json': ('95361e61da027d3d50efe67671f25a466be189c8b214bdf464995ec997a6721f', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso rank-0 --json': ('24de53fde1d44e8ae35c71cebd43f502b9fa3805947e35c1e02e3cb0054ed57e', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member in --json': ('5c44517498a4e47d89a131c766161ed1696f7beafb4327c6f2b79820b5a3a0b5', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member out --json': ('592d6750a4effd84aaa4b6058315c3e9122ddc2ab0a1f513d451187fd8c89045', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit homogeneous --json': ('72df78d398c9ecbdd6e750fe848f216e0c934b20342f103fdc8b43107488f304', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit mixed --json': ('289d3e66205ab5ffee14f56538e0d532a8a20e67b790a80edbc87ca973b20c98', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit homogeneous --json': ('72df78d398c9ecbdd6e750fe848f216e0c934b20342f103fdc8b43107488f304', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit mixed --json': ('289d3e66205ab5ffee14f56538e0d532a8a20e67b790a80edbc87ca973b20c98', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    },
    'f5-d16-n8m3': {
        'passport': ('445f4126ad73b60aa7f211449e6f48f70da29b51129c88e572304ab0f28236c0', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso recombined': ('e72dde97021284cb1d6b7833dcb1fceb87deda53014a970a5adbd9c7fa26770c', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso perturbed': ('b5e5b30fa0d9a3da1f6bf3ba73971e2b1e1ae92412368c62eeff9570381c8386', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso rank-0': ('906db8a370f1a9309fb3d2f3404d6772da6a5c9720d6839c7916c6c016323471', 0, '59f40e660104ed8b8c82375fb0c84c83520620688fdd6ef967cfca0014c12887'),
        'member in': ('a62a57782b89c23676883642e5c24c4b8494f6c1f9be4a1374f859309bb19383', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member out': ('7b4915aaf4ce927e4ec8aed462bc8fa75efefd31d21440162f12084e40a8b753', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit homogeneous': ('ad6fa69bab0e411507e05791ac9158cbe91f8fa8f67c20a0f7088d63177ca3cd', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit mixed': ('142c721b643e06a83eab2406820192cd437fa6bed15396c79740da4db3e3a26f', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit homogeneous': ('ad6fa69bab0e411507e05791ac9158cbe91f8fa8f67c20a0f7088d63177ca3cd', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit mixed': ('142c721b643e06a83eab2406820192cd437fa6bed15396c79740da4db3e3a26f', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'passport --json': ('f1eeaf54b422b799f729a266fd108638889eec321a6df4618e0e8c533d173106', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso recombined --json': ('47ceac77d5fc8badd4f6a5b8616c8ffcc0607ea57fc07d796998f07069ce3a36', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso perturbed --json': ('11c19ccc3a01dcd97e0a873ff2a375728bc451a7680bf599e89ebe53b05a4201', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso rank-0 --json': ('a0e491ca7d67fe31134f6caa7246d69754815d2d4848008359c19b0c72f39190', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member in --json': ('748a5c7036217299964b07975d7eb85469e2d774e139775043fdb73628129e58', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member out --json': ('935b62a71a058c2942408e4137d8cfe125da4f10a8f37a6742d014de751134df', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit homogeneous --json': ('5476905cb4875daa7b5e3b1694b20e66781a3c9e50719bf075171f7c241413c1', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit mixed --json': ('c98818c72840114f5672988d09dd3c6802ef392b8408aec90186fb6926abbe72', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit homogeneous --json': ('5476905cb4875daa7b5e3b1694b20e66781a3c9e50719bf075171f7c241413c1', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit mixed --json': ('c98818c72840114f5672988d09dd3c6802ef392b8408aec90186fb6926abbe72', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    },
    'f5-d16-n3m8': {
        'passport': ('81680797d7a2a399e4a4c9b7b531b06c8738b4d7fcd61e334270fd340007424c', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso recombined': ('4ce9011239f54e92596cadd7a30d7a37f8ef7fc1748fb4cc41b2b809bd84011e', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso perturbed': ('c617ef2cc70a8fb162d6679589515482e1fae7b76a1ca2e36da42490c4dcf8aa', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso rank-0': ('906db8a370f1a9309fb3d2f3404d6772da6a5c9720d6839c7916c6c016323471', 0, '59f40e660104ed8b8c82375fb0c84c83520620688fdd6ef967cfca0014c12887'),
        'member in': ('a7b9f83ff219cc1acfe02b1445ac90d876a60d7375d98a788a21bd0f2de37594', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member out': ('457bc4f8e76960329cbdc02957dfb582e0422ee7a79e01e419c0b17372d63b19', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit homogeneous': ('611c29d935e48137ada94e0d0127b6c9e6af87b6e511a7a95efa42efeab58a84', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit mixed': ('b0662ad8fef0872d2c1a0d98d4956b04868f36c0343bb52deb464c717ecd92e7', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit homogeneous': ('96f4801e69f73a2715ae451b6e405a80a24c20247208a1e3ec19fc9395c38502', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit mixed': ('b0662ad8fef0872d2c1a0d98d4956b04868f36c0343bb52deb464c717ecd92e7', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'passport --json': ('1c669165ccd3b6811716291f90207a1a557bc25a550cd1fa8a4b9df61ae643b3', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso recombined --json': ('f24860de2028df7e772874c817eab52f8d75d57e71a9671025cdaeb896304b16', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso perturbed --json': ('7480089569637cc5a75fc7d69dc2ece120f9e90197b2b5886222a41be62c4c78', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso rank-0 --json': ('d2705e4634789470679dc481a1248fccb21133cde461d9eca50568361161440f', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member in --json': ('5c173e203d8df83d412a8c0ea739099272c4dc4233cfd0d6b3f9a790353d5866', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member out --json': ('199e984108c8a3a62e58a3acd0dabe9c71b17968de409376370a450cf2ed1035', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit homogeneous --json': ('4d3eb279a34883f160b49b6e193fa84a7d80f6fcc1fa7d1f5504ec8a9f26d243', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit mixed --json': ('5efd56faac05b9005641a22b27839bc87707ec4e66ca89305ec328f5f3bd23d2', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit homogeneous --json': ('193039aa929b450e0ad90e6f03db06c1bc6d3a91360fc54acc03752664ec8653', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit mixed --json': ('5efd56faac05b9005641a22b27839bc87707ec4e66ca89305ec328f5f3bd23d2', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    },
    'f5-d16-n8m8': {
        'passport': ('bb1ff3b41324069177595a043396cb88a1e136bb20be3b5f9ebca6d17a38d9e6', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso recombined': ('be7aba9c5209f63ab4d19456dedb53bd6a418dc51382fcb070d19cb8e54b8c5a', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso perturbed': ('4b638330f07462359162c3539417844975df6117578bb33e04adbfd832698cb4', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso rank-0': ('906db8a370f1a9309fb3d2f3404d6772da6a5c9720d6839c7916c6c016323471', 0, '59f40e660104ed8b8c82375fb0c84c83520620688fdd6ef967cfca0014c12887'),
        'member in': ('822204acf22deafa661aa00a8d6542b7acb0a71328228db7535b72f0a2673fa0', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member out': ('96f2897edb66a806b2c7b0e825b935da438925c82b514662c158aa4300442a8e', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit homogeneous': ('1d4594fd72474b5b7405cce51fa82152553d82a6112332f516176a51962669d7', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit mixed': ('90ed7bfe7392242a4ccaf7f7010d4a6065b6df1d9e9b0988d2af4db7ceddb2a3', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit homogeneous': ('2fb2088becb6518774ba296fd93ca96b3b8c6c72c3d5564898755fa67437325b', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit mixed': ('90ed7bfe7392242a4ccaf7f7010d4a6065b6df1d9e9b0988d2af4db7ceddb2a3', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'passport --json': ('54113b42e4b0e05bde6bad856a0675baec19624c270f6a584092f2c1d4c9e118', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso recombined --json': ('b3f1545ea4367da354ce7db857e5b81659a0a8bf75d1f830d017e4c37764b2d3', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso perturbed --json': ('49c22b7b64420f57b12dd030ceddf7b8ba94e21a5dcf4653ae040bd742e57489', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso rank-0 --json': ('5d3551305f560dd9bc3cb7130b2383f345a9879f3cb66e6331eed38a3b4ea339', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member in --json': ('817310984f160806567244d8b747a2441bd3096910b6660861c12d4a7d6a0e8c', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member out --json': ('16aed8fe004eea1256803a8362bb4d0f2f806f7adf4bc4a8401a0d35b36e36b1', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit homogeneous --json': ('920529dd9ca97bdbf2621f06a32686671cb3187b6042f849604f800cef0ed813', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit mixed --json': ('e64530d045f5d38cc6a8072e6c1e9d2da9ef667579f1d2c67d62dab793d5bc08', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit homogeneous --json': ('99349581f69e75f5ee2ef92dd3ecd21612cec076889fe7cbb6538f8d7acb801e', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit mixed --json': ('e64530d045f5d38cc6a8072e6c1e9d2da9ef667579f1d2c67d62dab793d5bc08', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    },
    'q-d16-n8m3': {
        'passport': ('445f4126ad73b60aa7f211449e6f48f70da29b51129c88e572304ab0f28236c0', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso recombined': ('45656d24531782eea36346bba71973426f9a9a68399f9b63bca9c9fdf2f41e88', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso perturbed': ('71bab2802c8b404f6a08b3c39521e60c1fba86973860a02985be610de8383bf8', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso rank-0': ('906db8a370f1a9309fb3d2f3404d6772da6a5c9720d6839c7916c6c016323471', 0, '59f40e660104ed8b8c82375fb0c84c83520620688fdd6ef967cfca0014c12887'),
        'member in': ('17826044e0b0371b25d8df2400bbc9fbddf6fe0a12d14e667975ccc159c5e9c0', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member out': ('138c91d63af92e8744cf4847810a747b9b14668c49555e26640f03f02a15cd2c', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit homogeneous': ('469d28769c90ea2287f59a81bc11e7ecf15c924832b13367a8c5d04e755326d1', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit mixed': ('142c721b643e06a83eab2406820192cd437fa6bed15396c79740da4db3e3a26f', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit homogeneous': ('469d28769c90ea2287f59a81bc11e7ecf15c924832b13367a8c5d04e755326d1', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit mixed': ('142c721b643e06a83eab2406820192cd437fa6bed15396c79740da4db3e3a26f', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'passport --json': ('f1eeaf54b422b799f729a266fd108638889eec321a6df4618e0e8c533d173106', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso recombined --json': ('3491e7acd61cb2d3bf6afa45eec09e5883db9459a211d373475462ee6acc2624', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso perturbed --json': ('341fc536a3dee59712c5ee179c3ad3c6df86273c82e360d0e4564c14d29a7320', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso rank-0 --json': ('a0e491ca7d67fe31134f6caa7246d69754815d2d4848008359c19b0c72f39190', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member in --json': ('4a16d60a7995d5865c414069664e24451fed0f7903bab5aa3e22c98db1a91508', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member out --json': ('08583777bc3115406bf8e8498f9b8666acf313015d411d0e43ad60d012f91e3f', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit homogeneous --json': ('a5d61dc2d51c9f418f9e11a4431afbde3790fc233913cc41982af1201a698008', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit mixed --json': ('c98818c72840114f5672988d09dd3c6802ef392b8408aec90186fb6926abbe72', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit homogeneous --json': ('a5d61dc2d51c9f418f9e11a4431afbde3790fc233913cc41982af1201a698008', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit mixed --json': ('c98818c72840114f5672988d09dd3c6802ef392b8408aec90186fb6926abbe72', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    },
    'q-d16-n3m8': {
        'passport': ('445f4126ad73b60aa7f211449e6f48f70da29b51129c88e572304ab0f28236c0', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso recombined': ('dde38013902b3a6e8ff803b9662a322a2722bb252e61f4377fb4f6e7a538275a', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso perturbed': ('cbf8ef0926d46246ef8423b5aa7b4c69ff731025eab9c7cff85a237cacdf2613', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso rank-0': ('906db8a370f1a9309fb3d2f3404d6772da6a5c9720d6839c7916c6c016323471', 0, '59f40e660104ed8b8c82375fb0c84c83520620688fdd6ef967cfca0014c12887'),
        'member in': ('bfad2862b53ea027f5f43a125fbaa33715382560a20e1cf22e272a61724f572e', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member out': ('4aaff9cf3b6e7fef10686771c4e3aa5e0f7d51c202fb7d398bcbd9a5748f5b44', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit homogeneous': ('19751d74b9ae91b406494e959e756952214b101c337d77b43a3be220709fe823', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit mixed': ('142c721b643e06a83eab2406820192cd437fa6bed15396c79740da4db3e3a26f', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit homogeneous': ('19751d74b9ae91b406494e959e756952214b101c337d77b43a3be220709fe823', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit mixed': ('142c721b643e06a83eab2406820192cd437fa6bed15396c79740da4db3e3a26f', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'passport --json': ('f1eeaf54b422b799f729a266fd108638889eec321a6df4618e0e8c533d173106', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso recombined --json': ('22ef5f8a6c2655356da14a72b86d261229fb1bab36f8661c77fd52b1e413b575', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso perturbed --json': ('06690a71d65548a02e91af99f51412f9495994ff84ae907de99c62186185b538', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso rank-0 --json': ('a0e491ca7d67fe31134f6caa7246d69754815d2d4848008359c19b0c72f39190', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member in --json': ('4da8b383dd5193e1fe2ef5551045746e1a77326d37d5a7598bd6c306afe6913d', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member out --json': ('cc849eef6c85aa31d024cd734631d7a75d14854736ef2aa5abeb05c9e086645d', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit homogeneous --json': ('f1dcee34669fc4399b90c2cbb9556990f18dbf22d4d3d8a9d4e35e6959f51634', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit mixed --json': ('c98818c72840114f5672988d09dd3c6802ef392b8408aec90186fb6926abbe72', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit homogeneous --json': ('f1dcee34669fc4399b90c2cbb9556990f18dbf22d4d3d8a9d4e35e6959f51634', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit mixed --json': ('c98818c72840114f5672988d09dd3c6802ef392b8408aec90186fb6926abbe72', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    },
    'q-d16-n8m8': {
        'passport': ('8c55c77d578ab5f7f52545db2cabc271e4b561a04c906dc782e286aef3087881', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso recombined': ('9163aa85c68a17583c8d7d49cf3885128e4bccc34ccc0e45d5946a6fd098d980', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso perturbed': ('c4d8f10b7243f4b5dc489dea8a8d9fbf16e67c9ddfc3f877799f29fbad9374bf', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso rank-0': ('906db8a370f1a9309fb3d2f3404d6772da6a5c9720d6839c7916c6c016323471', 0, '59f40e660104ed8b8c82375fb0c84c83520620688fdd6ef967cfca0014c12887'),
        'member in': ('dcdffc49666a315be8e446518f62483f5456df00d39af2fef931b0baafd0af19', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member out': ('852f54103fd9881c57c8b57a75059a30e8605c3439ec2fef48d49c346b5716fd', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit homogeneous': ('0149ce3c1fe815a531e1c982a62fcd1a70a860c9d3b383624d58912332780201', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit mixed': ('142c721b643e06a83eab2406820192cd437fa6bed15396c79740da4db3e3a26f', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit homogeneous': ('0149ce3c1fe815a531e1c982a62fcd1a70a860c9d3b383624d58912332780201', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit mixed': ('142c721b643e06a83eab2406820192cd437fa6bed15396c79740da4db3e3a26f', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'passport --json': ('c6c0fed4863e9987628b4b4356e2750b416250e0845fc8ee0162e69b181fa492', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso recombined --json': ('b7991151f2e95df94c5f127da096bb362efe0109ac6a1f9363ed107bbca8ae3c', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso perturbed --json': ('308b9e2c8313e47337eb061ad9b79cb05bec18b274cfec414bb31a2e8a6d3f2f', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'iso rank-0 --json': ('c6289d2b4203d730b731ca8410fd788508a25eb841556f9ed33e8e42b2c73a95', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member in --json': ('3ef2dcdcabface93eb3eba3253eea19a2279b55501a6cc3f6de580b01775ab71', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'member out --json': ('8f3f74739e8f69cdf757ff959fa22429ab2f40c92be95adbcc7d27f4afcba1de', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit homogeneous --json': ('cd62a04356438f19b40fc547da548e0e1ae90b5a6a7e9c7ef014bd9ae7cde0d1', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis first_fit mixed --json': ('c98818c72840114f5672988d09dd3c6802ef392b8408aec90186fb6926abbe72', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit homogeneous --json': ('cd62a04356438f19b40fc547da548e0e1ae90b5a6a7e9c7ef014bd9ae7cde0d1', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'basis last_fit mixed --json': ('c98818c72840114f5672988d09dd3c6802ef392b8408aec90186fb6926abbe72', 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    },
}

VERIFY_GOLDEN: dict[str, tuple[str, int, str]] = {
    'verify': ('0467e437dfd5f5a7f2b4e43828aba8d79772aa0b20dcedf97cea468bf8622625', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --json': ('b5876fce626efb4b49bc01eae4709758532e280803b9ef057401cc652d69d114', 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
}


if __name__ == "__main__":
    import tempfile

    tables: tuple[dict, dict, dict, dict] = ({}, {}, {}, {})
    for corpus in CORPORA:
        with tempfile.TemporaryDirectory() as tmp:
            tables[0][corpus], tables[1][corpus] = answers(corpus, Path(tmp))
    for corpus in WIDE_CORPORA:
        with tempfile.TemporaryDirectory() as tmp:
            tables[2][corpus], commands = build_corpus(corpus, Path(tmp))
            tables[3][corpus] = wide_answers(commands)
    for title, table in zip(("INPUTS", "GOLDEN", "WIDE_INPUTS", "WIDE_GOLDEN"), tables):
        print(f"{title} = {{")
        for corpus, rows in table.items():
            print(f"    {corpus!r}: {{")
            for key, value in rows.items():
                print(f"        {key!r}: {value!r},")
            print("    },")
        print("}\n")
    print(f"VERIFY_GOLDEN = {wide_answers(VERIFY)!r}")
