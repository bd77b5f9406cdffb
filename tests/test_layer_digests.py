"""SHA-256 digests of the geometry layer, the Hodge symbol, the norm-power
jets, the pointwise eigenprojections and the projection layer, pinned.

The geometry digests were taken from the hand-looped construction that the
``tensor``/``poly_from_monomials`` helpers replaced, and the norm-power and
eigenprojection digests from the three hand-written copies of the index
raising that ``raised_covector`` replaced; any change in a value,
a truncation order or a term set changes a digest.  Values are serialised
with ``poly_to_dict`` for polynomials and ``str`` of the rational parts for
scalars, so the digests do not depend on how a scalar renders itself.

The projection-layer digests (every ``run_algorithm`` step, the
``verify_projection`` dicts, the asymmetry report and the square-root
hierarchy) were taken while each layer still rebuilt the metric jet, the curl
symbol and the covector norm that its caller already held.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest

from curlasym.altderiv import build_hierarchy, hodge_symbol
from curlasym.configs import random_bianchi_config, random_config, unit_config
from curlasym.exactpoly import GaussianRational, TruncatedPoly, poly_to_dict
from curlasym.geometry import (
    build_metric_jet,
    curl_symbol,
    d_delta_symbols,
    norm_power_jet,
    transport_jet,
)
from curlasym.projections import (
    LABELS,
    asymmetry_report,
    run_algorithm,
    verify_projection,
)

from conftest import eigenprojections

CONFIGS = ("c1", "c11", "c17", "seed1", "seed2")
TRANSPORT_TAGS = ("origin_to_y", "y_to_origin", ("y_to_tau_y", Fraction(1, 2)))
MJ_FIELDS = ("g", "g_inv", "rho", "rho_inv", "gamma", "riem0", "driem0")


def _config(name: str):
    if name.startswith("seed"):
        return random_config(random.Random(int(name[4:])))
    return unit_config(name)


def _hodge_config(name: str):
    """hodge_symbol needs Ric(0) = 0: random inputs come from the Bianchi class."""
    if name.startswith("seed"):
        return random_bianchi_config(random.Random(int(name[4:])))
    return unit_config(name)


def _ser(value):
    if isinstance(value, TruncatedPoly):
        return poly_to_dict(value)
    if isinstance(value, GaussianRational):
        return [str(value.re), str(value.im)]
    if isinstance(value, (int, Fraction)):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [_ser(v) for v in value]
    if hasattr(value, "to_dict"):
        return value.to_dict()
    raise TypeError(type(value))


def _text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digest(value) -> str:
    return _text_digest(json.dumps(_ser(value), sort_keys=True, separators=(",", ":")))


def layer_digests(name: str) -> dict:
    """Digest of every pinned geometry-layer value of one configuration."""
    cfg = _config(name)
    out = {}
    for order in (3, 4):
        mj = build_metric_jet(cfg, order)
        for field in MJ_FIELDS:
            out[f"mj{order}.{field}"] = _digest(getattr(mj, field))
        out[f"mj{order}.e_mixed"] = _digest(mj.e_mixed())
        out[f"mj{order}.d2gamma0"] = _digest(mj.d2gamma0())
    mj = build_metric_jet(cfg, 3)
    for tag in TRANSPORT_TAGS:
        tj = transport_jet(mj, tag)
        out[f"transport.{tag!s}"] = _digest((tj.z_vector, tj.z_covector))
    d_sym, delta_sym = d_delta_symbols(mj, 3)
    out["d_delta"] = _digest((d_sym, delta_sym))
    out["curl"] = _digest(curl_symbol(mj, 3))
    if name != "c1":
        out["hodge"] = _digest(hodge_symbol(_hodge_config(name)))
    return out


def covector_digests(name: str) -> dict:
    """Digests of the norm-power jets and the pointwise eigenprojections."""
    cfg = _config(name)
    mj4 = build_metric_jet(cfg, 4)
    out = {}
    for r in (-2, -1, 1, 2):
        for order in (2, 3, 4):
            out[f"norm_power.{r}.{order}"] = _digest(norm_power_jet(mj4, r, order))
    mj3 = build_metric_jet(cfg, 3)
    for order in (2, 3):
        prin = eigenprojections(mj3, order)
        out[f"initial.{order}"] = _digest([prin[label] for label in ("+", "0", "-")])
    return out


PINNED = {
    "c1": {
        "curl": "6043ca17a99c2f697d8fa2c1a849bfd083c4766cca7808ca6775b75181fe1bd2",
        "d_delta": "e24b7a3f0de3e1fcae16c9c92145e7fefe74cf7b47928dc7b020f2f27e63dad8",
        "mj3.d2gamma0": "9d322e12711f75f33030b618293f7e6f5b536fc9f22077a81988daeac678a42f",
        "mj3.driem0": "822e08fb724691937a7e83aeb464afd7246036104d4691c88c32626838e025e3",
        "mj3.e_mixed": "7b0f79b49bf90cc4a41cfb7fe46108d4469a72c150f8602870af6640437224fe",
        "mj3.g": "649e7b2215c894b92253bb65e3aa91528d0c310e5133d841a9f9e8ddd41dbe29",
        "mj3.g_inv": "d1075b704d2925fd628a381773f523b75867f28017af33385c647169dbb301c1",
        "mj3.gamma": "1388217042f1798ece1b5daeb024dc3a39bf322c18af8455332b06e6d4c06529",
        "mj3.rho": "be92185620c631cfd1d792a647a2277c68c6c4623f24456b49e68a0a4e7d9d73",
        "mj3.rho_inv": "d579ad68ec8efb3bafe01ac49e67a2c853d0a3a98ed59370bf8bb98b036259c6",
        "mj3.riem0": "9d8bf3adea6da20585096fbf12ef920e3f511a8df7b1af5873302ea30d133ff8",
        "mj4.d2gamma0": "9d322e12711f75f33030b618293f7e6f5b536fc9f22077a81988daeac678a42f",
        "mj4.driem0": "822e08fb724691937a7e83aeb464afd7246036104d4691c88c32626838e025e3",
        "mj4.e_mixed": "740a21b29e31d7e60c058f63b200b7a3acb890ee21adfdef04d4c17f21a0991d",
        "mj4.g": "86434d77c6ac6e2085254f616938ab0b585fb416c0d49a46c2ac8daa93547887",
        "mj4.g_inv": "3cd8b85c16684de455357ebfb70bdab3abffc1198bfe1e0258be59d396a60167",
        "mj4.gamma": "5f00388918efd2344a3decb2fd3d80525438d98518e2207b42a81d70f8a39987",
        "mj4.rho": "d916604e46815b0be5ea13de656f2b8b3c73e310b028f0bfd6aa896d63aab119",
        "mj4.rho_inv": "f73d6e42a2bd9f866cdd7e41ce0acd4f075c5df0bcd04310c8d9bf5ee8def744",
        "mj4.riem0": "9d8bf3adea6da20585096fbf12ef920e3f511a8df7b1af5873302ea30d133ff8",
        "transport.('y_to_tau_y', Fraction(1, 2))": "db4fc6af122e2a3be70bbc8ba80dde1b5e623f3a1801b0815b69c87f243d3d98",
        "transport.origin_to_y": "60a5997687bbb29de4e18f63d985d9f85c2348a5265fb8ae0fd0c1d6801e6833",
        "transport.y_to_origin": "f9386d00a3f5130f1c0d19573fb377f248661d5820c256c2a66219106aac719c",
    },
    "c11": {
        "curl": "8b47678adac8a485922900a382680f7f9e266987e7d062661378461d48f92099",
        "d_delta": "684bd43d09854e2749b24ae027f219cb8c006383182ab49ae44cf66686695aac",
        "hodge": "d4b3f032108b4d89b17bc24eba6d06da2ca6bde13ca803b0a2ac96aa5d267b9b",
        "mj3.d2gamma0": "ba57a97ebf097e2cf6ce7fa74454573fb229897e7fb0d1b2e8b49186e0136c5c",
        "mj3.driem0": "18aa276ff3ae97305484543cd0fa9526d08f6f994c7c3eae72fc5d8e661b2027",
        "mj3.e_mixed": "b65b40b5678686e06b8c06a94a0c10c5e84ce6f25600b8b0002a75f146634107",
        "mj3.g": "3be5aa68ce86df5344878e31cbbb30fce596292e241bbc3ec8fb2f5b4e3f62fd",
        "mj3.g_inv": "3147165112b4953d47d231af2ccb3a235c3448d34f9dd6a17a4d8063cee2c879",
        "mj3.gamma": "df0fd421016d4315bdbcc1216ec5d727b42af2ec54133d9ef9f381a0cba5de9d",
        "mj3.rho": "784703fcb9ffb3857d6be8d6af24f3280afa6cae70becb9126387e2336ae2632",
        "mj3.rho_inv": "9f6ebd4cf13bce14fdf77dec97876f5a3856ded74880f40f58eb40f5d17f6e6e",
        "mj3.riem0": "771a75daa31314af4c566a6cf821a72eaba02f28897cb58bfb99a0fe404b6319",
        "mj4.d2gamma0": "ba57a97ebf097e2cf6ce7fa74454573fb229897e7fb0d1b2e8b49186e0136c5c",
        "mj4.driem0": "18aa276ff3ae97305484543cd0fa9526d08f6f994c7c3eae72fc5d8e661b2027",
        "mj4.e_mixed": "9ac7d444e56ca94d850be9a253b9875cd52f3221bf8c265c7bb483ef091991dd",
        "mj4.g": "79f5a159c90307e23891f9eccfc1946c691c13be14b2b25442ff6d1eaf4ac8da",
        "mj4.g_inv": "b30619aea31aefe155776fbf85be57f45554c53a753038a3c01edb89409cfb65",
        "mj4.gamma": "57c3f877ebfc3178747de70b06909ff4346a53e00dc86240a0f2e8278e5785d5",
        "mj4.rho": "c7c31c4855f577ab59dfe032e540a8b0c250fe09bb8e8cfaa40dfe4a3310f933",
        "mj4.rho_inv": "594967fe2971ae5d574c95b3eafd44e837ffcc05f495cf55d3403c4849719ef7",
        "mj4.riem0": "771a75daa31314af4c566a6cf821a72eaba02f28897cb58bfb99a0fe404b6319",
        "transport.('y_to_tau_y', Fraction(1, 2))": "cc76d8a24e79ee2160d245572e005b7e8f938b284a2eb50017ad8265a10648e6",
        "transport.origin_to_y": "429350f8805a67e69aebf6f7ffb4c3f05ea2c2d0fa0a39ed9e3c03a0aa47bcc0",
        "transport.y_to_origin": "692248983be548576df85133db07589ed21698d161ba3a0c629532df64f0f2d6",
    },
    "c17": {
        "curl": "37ab36cceb1eb370bdb7608fce27ef1608344b2cc434520756a137a0fa5186bc",
        "d_delta": "aced7e98ec8d33878445afee431ed97e945fc22eb37529aac429cbbdc7e61bd1",
        "hodge": "106de2068512baef9340218e75e16a7c9d4cdf6352e0c6d151b7a99ac384b860",
        "mj3.d2gamma0": "b1690ca6dbe3b67f8aa3b1889bee53c530388a318bf9dbc9c48f533afb2ad753",
        "mj3.driem0": "86841edfcb4cc1bd7d5a26ec86e7bbd8862230d1f2c8c954367b06df65287b9a",
        "mj3.e_mixed": "444a6882a451cba6c482c0db4d2818b828f2a4d26f753291aea0f8727ac77536",
        "mj3.g": "6a07bec632477fbea76305fd9c924b8a852b6d0bb71a7a1197c6c23b29ae5bb4",
        "mj3.g_inv": "56f2a75b4e3129da7627e75e24975630c8500af7279ccaaa19b988330ef7e89b",
        "mj3.gamma": "ada60865415baaedd33dc52d53a3ff237802d8d03307794b66df03f5b3143042",
        "mj3.rho": "b4373f8ba3c68520d0f3296d8ee01e5a9e053db722cc84bc142d121d21afa518",
        "mj3.rho_inv": "69be9cc38fa6bb1156a60d1acdf34a1334370c48f02f28dfbe46ee37a5ac2c2d",
        "mj3.riem0": "771a75daa31314af4c566a6cf821a72eaba02f28897cb58bfb99a0fe404b6319",
        "mj4.d2gamma0": "b1690ca6dbe3b67f8aa3b1889bee53c530388a318bf9dbc9c48f533afb2ad753",
        "mj4.driem0": "86841edfcb4cc1bd7d5a26ec86e7bbd8862230d1f2c8c954367b06df65287b9a",
        "mj4.e_mixed": "14a8f6a0a6409f9903154dd06806b28f545d7074cbac5a57d59520496ea7e3f7",
        "mj4.g": "ddbf449aa5f4770305daa0681b4d326e039fd284478dbb219be5ffa14b45b0aa",
        "mj4.g_inv": "cde1051aa556260895a50b7c4ef6867d32726cd5de096ecb95fda344f2b6f3db",
        "mj4.gamma": "060a2cf3ac46e149ca28d41c022ea24baafa201b30175e2ae8e0195355eaa134",
        "mj4.rho": "fc4bc917f827a20b79e7d6d92dc114ebed35c83cb74e229cb9dc5a90146bb143",
        "mj4.rho_inv": "1b5d67d5da2f50857852724b3e45d94cb27ff65c92d8911921c16fea1e5f5195",
        "mj4.riem0": "771a75daa31314af4c566a6cf821a72eaba02f28897cb58bfb99a0fe404b6319",
        "transport.('y_to_tau_y', Fraction(1, 2))": "234c423b759b09958aa6a50307c02caaa8fc42773bb1a673db4c197f8de47eec",
        "transport.origin_to_y": "4dba20f5cf4d3ee203f1f5c3abf1404affad146567c95ead5b3a3ebe5daa5435",
        "transport.y_to_origin": "52941d01f9ed1b894ef8df1867df021428f8c870f5711d15303fb0516dc499b5",
    },
    "seed1": {
        "curl": "06d29bb80954e19c53ce008f28fc870dd495133f950bcbd4f3c8bb2b9a7d3311",
        "d_delta": "92e64d6b2613c839d92f682a587cc0e384ecccf0736b7947c4cd300ba691aabd",
        "hodge": "000962f6549519dee844436a1c057b842e65ef3a3d55fbd69094e3be1e619ebb",
        "mj3.d2gamma0": "b9b846967b65e0c07ba67af8c55e589040a3e98fdc9e25eb447aaf121d8d2a2c",
        "mj3.driem0": "fbc8c8c8a9d83e15b300aca6b8725d6ac594159769796e517d33c4516600dad7",
        "mj3.e_mixed": "752c35a842d12dbf11b02291d06999233970e64bea3ccae9f154c89a0e2e3692",
        "mj3.g": "e3ef2db67c7ea3b1ed330cf1ca5f60bf5a149d5a060a6c9f8bb1dfe138c6c6ac",
        "mj3.g_inv": "ad1f714f3caee32d3830b44c53200ae16673351aa2f2be56177319c5df612292",
        "mj3.gamma": "7c70193c57322a83c2899ce6c8a2ed993522d992876d8b218ee843de2737504b",
        "mj3.rho": "8cd6ffffb643ef319966f57cefa87101c14dcb099cc48606014a23bf94355be8",
        "mj3.rho_inv": "54d29d979d2ed2279e94fa35448793b8085b348570976d5601d776b59d314623",
        "mj3.riem0": "67177b5242535ed90dca3070dd799d5cd120ecb241e1c6bda5dfd70f10c09b9f",
        "mj4.d2gamma0": "b9b846967b65e0c07ba67af8c55e589040a3e98fdc9e25eb447aaf121d8d2a2c",
        "mj4.driem0": "fbc8c8c8a9d83e15b300aca6b8725d6ac594159769796e517d33c4516600dad7",
        "mj4.e_mixed": "2715390cd4055e286fb83553304e90996bf4916866f5fb0276b9513b168f143d",
        "mj4.g": "1402fb3f81469c10f28ce24f88a56b77d33ea90d928a17435878b0092a694dec",
        "mj4.g_inv": "5e1b9d48d8a83101bd9cd8a55b66dfb4a5a980b407d9c331aa9a76d1cfacae83",
        "mj4.gamma": "c26c4522ad0879d46d590254a066b11f4f73a1cd63d794c3abb4d0c333c73de0",
        "mj4.rho": "2df545a5f4957247a870bf5a0b92860400102b1b3ad93b994aefb519ee5a951b",
        "mj4.rho_inv": "44707eea692f47a0a65e41e15cb2b01297a4c282cc01afab60e6c18118409b2f",
        "mj4.riem0": "67177b5242535ed90dca3070dd799d5cd120ecb241e1c6bda5dfd70f10c09b9f",
        "transport.('y_to_tau_y', Fraction(1, 2))": "29810988becaea2b712e371904c4e57ca4a73d8b5fa0a772ffee08b8a693464f",
        "transport.origin_to_y": "d347b380910244f43e185753f7af5f1984b4761dcf7f780a424871699f6bbe54",
        "transport.y_to_origin": "091a8a7dc7bc177c7de1bc5e7be8190744a0302bef5c174f28973d649934dc7d",
    },
    "seed2": {
        "curl": "35d1a32c71210acb8c34744d0a343cec5d646bc060abbeb03e8f92c912aeb455",
        "d_delta": "72a92e10dddcec84454b684b030bc756e3af8d115e9bfe698bd714ca3a563367",
        "hodge": "35c40285402d51496b24a1f24e177f8911dac5808abfc4d3e968bdc15a347f3a",
        "mj3.d2gamma0": "74ce562acd630bec4863ccb98561abd5bee158a29d39cf18b6aac20451b09064",
        "mj3.driem0": "4109ed12d43b3d8135d077a25506cd820ebea7cca235347326260daf4d64e173",
        "mj3.e_mixed": "e4c08bce5e073a72bce8572c3f6afc2f2a8eb689678f9cb2c2f2670438b6afda",
        "mj3.g": "bee6f4c5a5f0908b365fc86a4c00575d9b461e4503e9e11c4b509bfee78373bf",
        "mj3.g_inv": "503be43e239f30965fab916e804a0f69c085569d12648611c84b47f9bf3e20e0",
        "mj3.gamma": "33eea0b05ac06f48a8bbfcfce4ef8d23dbae000d20bf9345612e321ebdb147ea",
        "mj3.rho": "234d719ff45e97a3c8e5989da2ba62d9feb00df53e8c56b51c76240a29b114aa",
        "mj3.rho_inv": "30d26cb6d738b98c5c9d3d18bc4ff0c7b875e95433ae94abfee89eae5cf79ef3",
        "mj3.riem0": "e4e19c379a453d78bc63b41dca000b2edffe330899cda5e0fc566962ac6e9651",
        "mj4.d2gamma0": "74ce562acd630bec4863ccb98561abd5bee158a29d39cf18b6aac20451b09064",
        "mj4.driem0": "4109ed12d43b3d8135d077a25506cd820ebea7cca235347326260daf4d64e173",
        "mj4.e_mixed": "71306c0c24fa64f9ad6af228699afea64bec62110568e67e29746808310cbb00",
        "mj4.g": "c8c5b63be1c7a891905d9bd5ecd77a81d947e0eac6f72c3cc6ca195c1420ee5d",
        "mj4.g_inv": "1ef3a307a1a71aaf56e5847ddf17eccca3f61e2c2e46e21edeb722864b9096d1",
        "mj4.gamma": "8f06a7b9cfe7aa89929f4236731dc63998a88d491cb5d5a8018ae0bb3e7282d8",
        "mj4.rho": "49074b38b9cf0faa4ef57ac1053c6b47c77c7ceb8023e19e656c5cc5367a2a82",
        "mj4.rho_inv": "e8c8e076366bfef76872a47999b07cf08500a05d75a0721bbf435e6bae7892ce",
        "mj4.riem0": "e4e19c379a453d78bc63b41dca000b2edffe330899cda5e0fc566962ac6e9651",
        "transport.('y_to_tau_y', Fraction(1, 2))": "ac7f5c06a63c1cd9ff24a9cb5ea74442c7609c6af6b6fd4e29713244980490c9",
        "transport.origin_to_y": "8c28745d7eef91c87bd8c3ec669ca8439e93f9793a75b976b0f73cc2c893bfae",
        "transport.y_to_origin": "c4a30df1ffb16a8778acd09e6cbfc4b19335a482a1d5a8ef2affcfbe2cdfd5b6",
    },
}


@pytest.mark.parametrize("name", CONFIGS)
def test_geometry_layer_digests(name):
    assert layer_digests(name) == PINNED[name]


COVECTOR_PINNED = {
    "c1": {
        "initial.2": "f6e1f1a992c185fc5124024c162a7c3ccb56dad17c88ea29170e1e1191292e04",
        "initial.3": "501981ef150d6ebcf74e276159e6edfb340f05a1db5d1fa92bb84ec07ea91c86",
        "norm_power.-1.2": "903633faac67ffd8659bb84a5db779074089ecdfb5c3b2db34543c5c9166fb4a",
        "norm_power.-1.3": "47310c5585260d5dc5b1b04a1197f7fdf6f040d0ff3988147d0684e71079a7eb",
        "norm_power.-1.4": "7b4497733f7d50f2c65df7ff6538e77f3818aa6d3829a2079b94d13baa7141ee",
        "norm_power.-2.2": "c8a472dbc7649a1b6d8bfb03d0b9b8d50b083f7638d30ea72bbbd7f3006239b0",
        "norm_power.-2.3": "39e8109f42a38a50dc2e30c9a68da7f7b76ae3d39f6497c3ec84b2f85d25299a",
        "norm_power.-2.4": "b2ec780b857d0849d0f72e2ffb81a95a85523d0c31a3f0161458bf463c69885e",
        "norm_power.1.2": "556d54ed723aea03b7f510f065379f9e9778d0cf02b5ea6ad7ef68eb7e987102",
        "norm_power.1.3": "46227b3e3f0f602989a6d34943f00dd693c812b4b19dc9ccd5b85c66204329c3",
        "norm_power.1.4": "a087b2f863ac83e25e086ad7cb674d3f9d61359a5b930a4e6ed08e47eeaa308e",
        "norm_power.2.2": "d47ccaefc17ab9217ccd8a31623ce5f6ecaea7694f8280fb91697b339ff1d96c",
        "norm_power.2.3": "a60ddac121167a6d02d8e74251fa32ba0f14f9cc18c24a63df33db471079014d",
        "norm_power.2.4": "a7b2f62a9728696a7fa093193b9b803b88b2dce1f77541bad577851a64647919",
    },
    "c11": {
        "initial.2": "2460114b963bacf43ef0ca2aa83cf3e4e89f5bf37cf363211dcdee10bc1bfb2b",
        "initial.3": "d02f2e2e5a423efb782c5100f6a38804ad85e9f175b90c2e74c4b880f8972f5f",
        "norm_power.-1.2": "5dae8ddbf1c868988a008db618be4d07b8317691039b958f699b521b6f828dd4",
        "norm_power.-1.3": "375445f0e2a2ec35484af726c41edcbbaa2a5140596c09c15c0af12b98ba8890",
        "norm_power.-1.4": "e7f0eb2f726978de93cbc8deb395a5702099ad004095feb704cf6aed140334d7",
        "norm_power.-2.2": "d7a1979f3779e83d624e880369ed86d0219a5dd33b760b0e2f8d814c69fc9fb6",
        "norm_power.-2.3": "c8c3b2980623f0fd98f36c89d0618743a6b4ca9565af7bd3eaa70c590355548b",
        "norm_power.-2.4": "8ac1b9b29459dae375c4a4e649f03283e18985fead31c07dc83e82b25d9b2f40",
        "norm_power.1.2": "66f54114f9cd3642caf965303f74659bfacee8bd72ebdafd2ae83d4c6abe6879",
        "norm_power.1.3": "8b2164a81513fe8f97d0139fcdfbfc40129cd6f0bdf08ab6888bcde64d0cbc46",
        "norm_power.1.4": "33e073d8627a07aafc0fe113702b5770cd453c4e432f48bd4a2853939714f116",
        "norm_power.2.2": "cb1d28e49b95071128ef3042575ab7311cb473fae0cde182c2da75485ea7a4d3",
        "norm_power.2.3": "ccaed238e0611f6abfffd54c1b809b4b1be68c8da13ca08e4afb11f7bea5212f",
        "norm_power.2.4": "2162507aa75119296b89a9534fcf135a2408e447107a97a2dda17e5c2fada622",
    },
    "c17": {
        "initial.2": "2460114b963bacf43ef0ca2aa83cf3e4e89f5bf37cf363211dcdee10bc1bfb2b",
        "initial.3": "c6dde70721251987f278bf3830123c1e42ea0ec2a6e5ecc36a68bce47a93c7d2",
        "norm_power.-1.2": "5dae8ddbf1c868988a008db618be4d07b8317691039b958f699b521b6f828dd4",
        "norm_power.-1.3": "375445f0e2a2ec35484af726c41edcbbaa2a5140596c09c15c0af12b98ba8890",
        "norm_power.-1.4": "6adda8f7533a11b204cdab8cc26ad51418df0fc0e8068385f85ab9a90624656f",
        "norm_power.-2.2": "d7a1979f3779e83d624e880369ed86d0219a5dd33b760b0e2f8d814c69fc9fb6",
        "norm_power.-2.3": "c8c3b2980623f0fd98f36c89d0618743a6b4ca9565af7bd3eaa70c590355548b",
        "norm_power.-2.4": "b75313e2c6c94116146c1f00db476008484f0e961bc26ad87068a31321d6f028",
        "norm_power.1.2": "66f54114f9cd3642caf965303f74659bfacee8bd72ebdafd2ae83d4c6abe6879",
        "norm_power.1.3": "8b2164a81513fe8f97d0139fcdfbfc40129cd6f0bdf08ab6888bcde64d0cbc46",
        "norm_power.1.4": "0e982c170238ecb00320006f4367dc936e111c6241c89ca33a9c084f3dd2d0f5",
        "norm_power.2.2": "cb1d28e49b95071128ef3042575ab7311cb473fae0cde182c2da75485ea7a4d3",
        "norm_power.2.3": "ccaed238e0611f6abfffd54c1b809b4b1be68c8da13ca08e4afb11f7bea5212f",
        "norm_power.2.4": "a6695578e42b4671098a37a02ff011f8ad350e2d3d4faa5b4753b037ecc0e7a2",
    },
    "seed1": {
        "initial.2": "e0a31492f806fad136a6656256c6c7564f69d287ea4819f8fe3969d67ad5ae50",
        "initial.3": "6af5a5f974fcc8ac30eeff3d05d1bf89cd1c5bf2fe520334d53b7d869728e636",
        "norm_power.-1.2": "e09c4df139a7c3d9aac38071ca49c4ec548bb6035a42b38790756eed34e3e083",
        "norm_power.-1.3": "4cb8e3cee65739ead5de95f4e7bb5c457be66f59986e9b368b53533c8d4058cd",
        "norm_power.-1.4": "7f1ff05efd10ea2985cbc357a94f2f291c677f47ad5725f1b5d465c0ff03e63e",
        "norm_power.-2.2": "3e08ef336b2e48894a9c55ce44ef21354e70e61166fe2443237be6f848178002",
        "norm_power.-2.3": "4aeaf6ddb433f4a21e2662c3d44d436f4d08b40454a68b644e0338b1ba46a9c1",
        "norm_power.-2.4": "4008bde8689bed3dfb47e328ad9704bc366366a71bab7f10891b87bd5d97e105",
        "norm_power.1.2": "c2832a6595036b9906823ba4ea531380cdae4ba81fab22a42166044acacdef37",
        "norm_power.1.3": "650373fcd6961b826b9c9c33ce2490a38c422f6a3575ba015c386702b7c18461",
        "norm_power.1.4": "4b2f70bc629e1fd4829dc293958af9b1772f55837018ac99e0ed3955bcd0f223",
        "norm_power.2.2": "7e4773aca6081e9a4a83091b53a5698041aebf2d95f53a788e2ccff7d406ab2f",
        "norm_power.2.3": "7ed668ed4bcddf8ff29bedf3aef317f6702c403973f0187eebe3467269d6681c",
        "norm_power.2.4": "37ef413df6ea30c236b4b079596cd82785de2d35aca843fee70e5515c76b730b",
    },
    "seed2": {
        "initial.2": "5577ef455fff86e373cff73858cdbed59b54d82199b88027f89f053b4ff71936",
        "initial.3": "d557f84eb4b9d1529e09f51a5e841cc800ecb15423390bcb49e308d1813bb5b2",
        "norm_power.-1.2": "2785d69b82fca28b733014fb472ee579af9d6de46915591105d12ad32bd0d4b5",
        "norm_power.-1.3": "9fc4f5d0bf88504657d14854dd41914a4e7308a2f3d510b1e7354a652add10ad",
        "norm_power.-1.4": "8b6e9b31b78126cabb1b3f77d5c6baeaa998b771c8a4ac9350a4b7b1fb8f5d13",
        "norm_power.-2.2": "3bacc655c5773a081c30a81c92d8ae24ebd40297015ce1aa9c41f0e921fe6c14",
        "norm_power.-2.3": "970e33ce5996b7b90dfa7034e4563db7fca3949e1328f1c7ef80f7fe47297072",
        "norm_power.-2.4": "a564d9dc9dc0f80b54a18e30cf45d0c1ca12373a5952305c70ff0618df78839c",
        "norm_power.1.2": "c92be29abd9db39d4f608b1276edf65828f7897f405387895af1398b848175cb",
        "norm_power.1.3": "f48c33d94f7197d8596f7ebe1282db2d08366ef4a8c232e3307e020cdd24dfc8",
        "norm_power.1.4": "984e40ce4726bc9556bdbdd85c8f886ab5da8c17b93e3feb9e03aebdf6c6c2f0",
        "norm_power.2.2": "760965fb4993d3a69723362059d34588277453c3f4cc71df49daa2cd5e69098d",
        "norm_power.2.3": "ef30d1a522c7b9e9c07b029f631c4587fc1d032d70cb233d1c2213066b95ec2b",
        "norm_power.2.4": "22bb91f311edb5b1efed779a984bddb5822711a5e109463b9d5176ae191fc536",
    },
}


@pytest.mark.parametrize("name", CONFIGS)
def test_covector_layer_digests(name):
    assert covector_digests(name) == COVECTOR_PINNED[name]


PROJECTION_CONFIGS = ("c11", "seed1", "seed2")
HIERARCHY_FIELDS = ("r0", "r_m1", "r_m2", "s_m2", "s_m3", "s_m4")


def projection_digests(name: str) -> dict:
    """Digests of each accuracy-3 branch (its jet and every R/S/T/X step),
    its verification dict, the asymmetry report and the six matrices of the
    square-root hierarchy (on the Bianchi config of the same seed)."""
    cfg = _config(name)
    mj = build_metric_jet(cfg)
    out = {}
    for aleph in LABELS:
        fam = run_algorithm(mj, aleph, 3)
        out[f"run.{aleph}.jet"] = _digest(fam.jet)
        for k, step in enumerate(fam.steps, 1):
            out[f"run.{aleph}.{k}"] = _digest([step[key] for key in "RSTX"])
        out[f"verify.{aleph}"] = _text_digest(
            json.dumps(verify_projection(fam), sort_keys=True)
        )
    out["asymmetry_report"] = _text_digest(asymmetry_report(cfg).dumps())
    h = build_hierarchy(_hodge_config(name))
    for field in HIERARCHY_FIELDS:
        out[f"hierarchy.{field}"] = _digest(getattr(h, field))
    return out


PROJECTION_PINNED = {
    "c11": {
        "asymmetry_report": "d37f9d0dcc5192708e1851fdef5fd56384d9ef75dd0953703c8c0ec2e0ee7875",
        "hierarchy.r0": "ae162c5005cf42fc2635e82d096276be80a31ddbcb815c0b5cad6c08d2344123",
        "hierarchy.r_m1": "62ad4e5302e23d0e46a2eeb668b6874b7a1272d3e65910a453aabb66b0a90cec",
        "hierarchy.r_m2": "cfa6c9e5c8f150281dd4abda4b158698501dd2ebfa4630254a663ebc6d9a5bf6",
        "hierarchy.s_m2": "da87985c146b383daef830f8def556e86296873e883fa480c9d26720e6f772a2",
        "hierarchy.s_m3": "15a47a813cfcd622f8b09da87099174288bcc144d8f0a7a786093312235bde17",
        "hierarchy.s_m4": "850fff9022408b6008aa51d2d046931b0119959a57926e98d84f80776c6a8724",
        "run.+.1": "f251bd9d4a428392848d7b3dea9ef22a401a56d68a7785010b1bbced26528431",
        "run.+.2": "c168e955447161ba6b99856054865d15df044762e6f42234dd32dc8585d6fe0e",
        "run.+.3": "36b98d602f2f85835e23af6f217dfb32c02dd126e0b09b6dc6c2d6e96f5d9c01",
        "run.+.jet": "fab84475184c0c01769135c576367a1274dc3b8d0536f01497bbbc1f3dd94544",
        "run.-.1": "62c7e9c61cc27b13249bf1f6b1f02d5b58e76442f77a0f886fac1e3f91dc50f8",
        "run.-.2": "2a6cd6264e8251abd461d626295fd7f52fc4712f62865e838b1aea0390700d19",
        "run.-.3": "a703a1f9a7f13d10e17fc3ddcafaeb5dbe88b55623bab47c40468cdbe58095bd",
        "run.-.jet": "33b6bd725f4108a020077371c4a4ae1d8f74fd869d3fd6fde4264bd11a4f61dc",
        "run.0.1": "f14d733b1e3c44a0937f05de9f5d91e6dc56079b1b7191b954ae776c71b4a82e",
        "run.0.2": "2c136660ce16686ffd19172f2a89be96a8f2868c5e919c3d94ef3ac971a56287",
        "run.0.3": "f1a82f81e00045ac71c14be9f273c4e0adb55f71074715716cefb1e024bc9736",
        "run.0.jet": "3b04ed82833db0eb4638ecfb56ca884016b40f23f0815f9dc9af93a25c3d3c84",
        "verify.+": "0d2c6d788fed5cfdbf230f2d4372fb55b13ba6f112db30a859a5960bf960a15e",
        "verify.-": "e66a61f5cdbe59b585597f94df947afee141a7e342bd521a46efb251cf6f1efc",
        "verify.0": "4f6448d58862389fdab1d891e574b92a313c99fad679a47c162490099d92b662",
    },
    "seed1": {
        "asymmetry_report": "736fdfce177b56578d36125abda66140ce1a7d473803d6d0e9444cb0ca29812d",
        "hierarchy.r0": "9974933eb5078420cc757739027622d311f82edeb44ad948a3eae909d9746496",
        "hierarchy.r_m1": "49d585daca16e5957bfbb5f4586a0293245e48bc608d419c49909e78ad6f899e",
        "hierarchy.r_m2": "05d7308c6a6cde4ce0b048b3604026f899b7586abf4166baf8bd21be03874bcf",
        "hierarchy.s_m2": "7b5f8ca58c869bb24ef4393a7ff439c16f3f25919a1116ae59c17d17214a398b",
        "hierarchy.s_m3": "9e86d7666224671a9953d1bb16da1c85cfa6bb42aa3b819b0eeb6c5220754d98",
        "hierarchy.s_m4": "46601681682a16d42b9a4c46d89a94f10cb4d645ae1698f41d2bf0bb6d9adb65",
        "run.+.1": "6e5c1d1e6a23c73732a0654cc5e17b914bb62855821a13f4b988b7d3e8be8923",
        "run.+.2": "46d9e8193a3f3f0f07a8e4540a436c786202a6459adea90c399650198ae4f004",
        "run.+.3": "10aa3ed6efaa4800fe6c4c4f53dc9b430365ca59df07420f9772210cc7b554f8",
        "run.+.jet": "76b111c1b059c768ed2d91edf432ded869083cfa4b0296df8a26203278ec25ad",
        "run.-.1": "663f2e7d0501c286b9e8c10949118d1dfe923544c8eddfee066aac90b17eb0e0",
        "run.-.2": "53047a01afb4f8323026d34eda2f1425891d138ca2887b0e7da06afcd59b36ff",
        "run.-.3": "0f7b8c9feac08e8d78e7adc2fd685eea474eaca7fa778bab0967f5c28abe84c4",
        "run.-.jet": "e3bc40140c089345f76ef20156e15341e9a6fc7ff4b4157f6a84d6ab7b4c2969",
        "run.0.1": "7100bf7dc9cc2788410fff53f7ab654af520eb4a937208ce9a3788727e3261f8",
        "run.0.2": "2c87efd8f8aaa1511c94c124470f98a9e7b6ce7b3dd4f47f5ab126658ed4b6dc",
        "run.0.3": "5a39683bb21a222d8901893da733669e13158d188cfc566f101c2a1eaed4f06f",
        "run.0.jet": "b346ef04e8142386b623e7b7c7539a5021846f31492a1bea0e21a408afd714cd",
        "verify.+": "0d2c6d788fed5cfdbf230f2d4372fb55b13ba6f112db30a859a5960bf960a15e",
        "verify.-": "e66a61f5cdbe59b585597f94df947afee141a7e342bd521a46efb251cf6f1efc",
        "verify.0": "4f6448d58862389fdab1d891e574b92a313c99fad679a47c162490099d92b662",
    },
    "seed2": {
        "asymmetry_report": "5337c0d2a60719c87f02890094ea5b595b7faeeec7e32e56018773ff69f1488c",
        "hierarchy.r0": "146fd161fca37ce4ef9f36f6dd671b64272be85b9e5bba89151df044ba25619d",
        "hierarchy.r_m1": "35bf7ef0371ba1422848d98ead9d12ac2bc82b02bbd3baf78086a58591864c01",
        "hierarchy.r_m2": "0e38c8fcf03ac8c175ed603b8dc9232c8eba7b0fd8ec574b4f648b4886593a8d",
        "hierarchy.s_m2": "d41ed6aaad7296e25249132ef598362c0ab175fc6f4bbf1cde809a482f505ef9",
        "hierarchy.s_m3": "32c16dcdaedd0ee6985e92679b2a2f07257a9abc4e60c19faae801e102dd3221",
        "hierarchy.s_m4": "95399b3bc3ebf5110ff1921d488b09f2ba89624aec2b56c0b17e4a6b119e0188",
        "run.+.1": "bb47e60210d9988e5d7d46c5232f5fc94bb36a5c49536b1c5c71536b3960b8d9",
        "run.+.2": "5534b06232f868d79890966d397a2f05c98c1a57da8c2c2ead3d94f7c19985e4",
        "run.+.3": "b3354e301d2bb617dd00ef74310f2ce9da5296cd8e58caf07095ce53b5d31f4c",
        "run.+.jet": "21f3c251ecaaa92bcd2850b8b62ecf33eb9040e565a2fcae31f12c5ade767854",
        "run.-.1": "cdb702d9f19cfadd47bc2e0cc87227c8a01366e3c73b08e46c86f24ec2273114",
        "run.-.2": "b270339fc17ae297fffe4f387b2306702ef41a1f14976df048bc63a5d0d84cbf",
        "run.-.3": "02fa028a43d75c410469a88a23e222ac2e0dbdf709ce118874e9b0cb80d914aa",
        "run.-.jet": "5d3a187bcf8e385b37ef0826842cb9be368b59d12608b10e9cc7503b19a9e4c2",
        "run.0.1": "5c6e127572f62eb7240c0f652d605c1949bdf1ca94573043e34f1aa2a39ff3ab",
        "run.0.2": "39d370615cb8a6eba4411d0f3f5c370285be81677501e83560c21e45d481dafd",
        "run.0.3": "b77d8c4cb7fbbbf6b196e10f9b972807e53cb75469f6600ba5f739bc096ef235",
        "run.0.jet": "1aa34fe5047b65d06b42b4d6ea1833ff972d86b6d507ca6eaa45a7bcc010dcbb",
        "verify.+": "0d2c6d788fed5cfdbf230f2d4372fb55b13ba6f112db30a859a5960bf960a15e",
        "verify.-": "e66a61f5cdbe59b585597f94df947afee141a7e342bd521a46efb251cf6f1efc",
        "verify.0": "4f6448d58862389fdab1d891e574b92a313c99fad679a47c162490099d92b662",
    },
}


@pytest.mark.parametrize("name", PROJECTION_CONFIGS)
def test_projection_layer_digests(name):
    assert projection_digests(name) == PROJECTION_PINNED[name]
