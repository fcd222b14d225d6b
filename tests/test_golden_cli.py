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

`python tests/test_golden_cli.py` prints both tables for the current code.
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
    tag, d = name.split("-d")
    d = int(d)
    field_arg = dict(FIELDS)[tag]
    seed = 1000 * (CORPORA.index(name) + 1)
    text, code, _ = _run(["gen", "--seed", str(seed), "--atoms", str(d), "--ambient",
                          str(AMBIENT), "--gens", str(GENS), "--field", field_arg])
    assert code == 0
    a = parse_module_file(text)
    # the last generator lives on the upper half only, so two ranks appear
    upper = a.context.subset(a.context.labels[d // 2:])
    a = GeneratorSet(a.field, a.context, AMBIENT, a.gens[:-1] + (a.gens[-1].restrict(upper),))
    # vanishing on the first three atoms gives a rank-0 piece
    live = a.context.subset(a.context.labels[3:])
    z = GeneratorSet(a.field, a.context, AMBIENT, tuple(g.restrict(live) for g in a.gens))
    rng = SplitMix64(seed + 1)
    member = combine(a.gens, [random_element(a.field, a.context, rng) for _ in a.gens])
    outside = perturb_rank_profile(a, rng).gens[-1]  # GENS < AMBIENT: a fiber off the span
    modules = {
        "a": a,
        "a_recombined": recombined_copy(a, rng),
        "a_perturbed": perturb_rank_profile(a, rng),
        "z": z,
        "z_recombined": recombined_copy(z, rng),
        "v_in": GeneratorSet(a.field, a.context, AMBIENT, (member,)),
        "v_out": GeneratorSet(a.field, a.context, AMBIENT, (member + outside,)),
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


if __name__ == "__main__":
    import tempfile

    tables: tuple[dict, dict] = ({}, {})
    for corpus in CORPORA:
        with tempfile.TemporaryDirectory() as tmp:
            tables[0][corpus], tables[1][corpus] = answers(corpus, Path(tmp))
    for title, table in zip(("INPUTS", "GOLDEN"), tables):
        print(f"{title} = {{")
        for corpus, rows in table.items():
            print(f"    {corpus!r}: {{")
            for key, value in rows.items():
                print(f"        {key!r}: {value!r},")
            print("    },")
        print("}\n")
