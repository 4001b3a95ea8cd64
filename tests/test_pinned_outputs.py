"""Pinned CLI outputs: exit code and sha256 of stdout for a fixed command list.

The table was recorded from ``cli.main`` before a refactor that promised
byte-identical output, and every later change has to reproduce it. A change
that alters one of these outputs on purpose updates its row here and says so
in CHANGES.md. The commands cover every ``sn`` op, ``measure`` IE, Euler,
CSV and truncated traces, ``density --method all``, dimension-2/3 alpha grids
and every ``verify`` theorem, including the FAIL and INCONCLUSIVE exits.
"""

import hashlib
import shlex

import pytest

from zhat import cli

PINNED = [
    ('sn rho 1125896954054519', 0,
     "4c869c3ebb469997a5c531c15f86f7bf4d9d152d3b7be086b61fcf712ed9146d"),
    ('sn rho -12', 0,
     "f97570f23e876ebee152d05550669c6eb0c429e952bc28c71e0688929193e256"),
    ('sn rho 1 --output csv', 0,
     "58df641acb205b69f0f8329957cc24cc6905fbfeee06d4249284ad14e8c930a8"),
    ("sn mul '2^inf*3^2*1000000007' '3*5'", 0,
     "c876cdb3cda244bf56983e3a6b6b896d84977581b0054877942d5e4153edc68b"),
    ("sn mul '2^inf*3' '2^inf*5^inf'", 0,
     "f267fb3883385fa2c49833b08a4a5bf5948b93772613b57c0aadb8ba21213a74"),
    ("sn mul 1 '7^3*11' --output table", 0,
     "cbc81f013079331c388e49b2ee523ce5bd9359f71e70a4fa5eb47e9df0c5ee8d"),
    ("sn mul '2^0' 3", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('sn limit --seq factorial --terms 60 --pmax 13', 0,
     "e4276d21164c381574f6601bc8591e013911a18826a6c2798970d74c4bce75bc"),
    ('sn limit --seq primorial --terms 12 --pmax 7 --output csv', 0,
     "cfc13277af5e5daec7ecd4c9fa2dcc44bb9904715a8c996085a7e63175fa41ae"),
    ('sn limit --seq factorial_shift --terms 20 --pmax 5 --window 3', 0,
     "1c8f672979458fb18edceca9c2ff8d5a6a9d491924766358f34b65405bfa12a5"),
    ('measure --multiples 4,6,9,10,25', 0,
     "7d6a6b253f342153683d16e277b4747486f7ace9984919d6dcb61e6111bbfd05"),
    ("measure --euler '1-1/p^2' --cutoff 1e4", 0,
     "ec88620a7524cae6a4489fc38e7b71bc8a963d2b612e6b5b3b75e9ada27c90f3"),
    ("measure --euler '1-1/p^2' --cutoff 1e8", 0,
     "50249b46e1ca02659a5b4eedbda3fc58942ba3d2c3ba676128c59055346b4fbc"),
    ("measure --set 'kfree(2)' --chain primorial --cutoff 1e5 --output csv", 0,
     "d70bf028cf13d0217e61d11a2a9b5bbbd62703578f835e6d3ca75f473de60a3e"),
    ("measure --set 'kfree(2) & cong(1,4)' --chain primorial --cutoff 1e4", 0,
     "cb2b063c063d24563e9517ec255b269048c416c2cf462101b9b7d33cf2a78d3a"),
    ("measure --set 'image(x^2+1)' --chain primorial --cutoff 1e4 --N 1e4", 0,
     "d3b333119dec2cf699536b67437eaed62f45a405c7ac7a399549f2e6e0390e47"),
    ('measure --set primes --chain factorial --levels 4 --N 1e4', 0,
     "01f0125704a59b9cbf34fcf73e2a507851784ca0cbae2940395658973edeed48"),
    ("density --set 'kfree(2)' --method all --r 2e4 --cutoff 1e4", 0,
     "78e688cc0ba210facc1395a4f940676ea06a9424217cedf021d6f86b0b73a504"),
    ("density --set 'coprime(2)' --method asymptotic --r 200", 0,
     "a0faa78cb917347ceef26154afe90cca529e3df6c20b6bb5649c617515ccbae0"),
    ("density --set 'coprime(2)' --method logarithmic --r 200", 0,
     "0c83cc1462e8fd68d9b1e5880316795260a8b4fe3dd0d71a1fe5fc3051c2c576"),
    ("density --set 'coprime(2) & !multiples(3)' --method alpha --alpha -0.5 --r 150", 0,
     "b20cb02ea375f2d3b7cec590512d200bd1ce3a807fe520a305b609d1458f1848"),
    ("density --set 'coprime(3)' --method logarithmic --r 30", 0,
     "2f81357b7bac75832bf337e4c2bb0c7c6a44f7b60ff9e02051a8e0fae3467b4f"),
    ("density --set 'coprime(3) | multiples(4,6)' --method asymptotic --r 30", 0,
     "779456d06a7cc56208de74d76c2636a94f1149e2dd70e62eb00c8471450159bb"),
    ("verify davenport-erdos --family 'p^2' --pmax 13 --certified-points 5 --rmax 1e4", 0,
     "f4452757dad74f72f9712b0c5c7f58e03e5d5cf96b8b9eb6f0d66208a330e37d"),
    ('verify dirichlet --mmax 30 --pbound 1e4', 0,
     "ca6674b905a57a63e7fb1e1e62e81d41e9fb8cc1f301fc475de31d36a23bae66"),
    ('verify dirichlet --mmax 300 --pbound 1e6', 0,
     "ae9c6f7b7d49f9248a1f75ac2bf913c9ba8b1d8750559c85d4454d021d5b2e30"),
    ('verify omega --k 2 --pbound 13', 0,
     "332ba12594ac11591e6c19346d22c895449b4e501184159c4fbe93749b988afa"),
    ("verify eulerian --set 'coprime(2)' --mlist 12,90,210", 0,
     "9bab4619d35b246a9d9192d2823dffdf1b1f421ee7b4ae57b7f405f77c39741d"),
    ('verify asdmltp --moduli 4,9,25 --mcheck 36', 0,
     "bbf689d501bf6de5252bb621cbdcbc6b1509d1521478b2370cf58c7291bd89d7"),
    ('verify poonen-stoll', 0,
     "1d4936b704625f5ead0321f6bf1406ad814b79fb5d8a38fb2e610fae85cfab94"),
    ("verify mt --set 'kfree(2)' --cutoff 1e3 --rmax 1e4", 3,
     "fabfc4592f66ef4879cafb0f55a15303a05618d2df3896399168ef853bd65bb0"),
    ('verify counterexample --base 4 --terms 6', 0,
     "09e4d7c0b028889d65f70d9ecfadc9e59ea5377b21610a0b00fdb6cf091a8fb7"),
    ("verify union-dense --supports '2,3;3,5;5,7'", 0,
     "0793b53d383b17f88616c768d1a2691cbdf78461118975d5e700f26cf39978d6"),
    ('verify axioms --cases 50 --seed 3', 0,
     "9da6984d6a677dcf5c096b1ba856e520236ab4cd10f19ba86bd5712d32508e48"),
    ('sn rho 0', 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('verify counterexample --base 10 --terms 9', 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('verify dirichlet --mmax 30 --pbound 20', 3,
     "9833180720071157413bb2be5a2920ddca6277cf5ec8dc75c78347e33bf0f142"),
    ('verify eulerian --set primes --mlist 6,30', 1,
     "5fdd65c32b60389a229d39fc0f4413b4822e714611beb451b779b3be1a598cb6"),
    ('verify davenport-erdos --family 4,6 --pmax 13 --certified-points 5 --rmax 1e3', 3,
     "7a2cba2e124dd6562048227bd7d2df33ee4d6d189a31496044a6fa8bb574d234"),
    ('verify axioms --cases 50 --seed 3 --pair deformed', 0,
     "32ecfc0017c63ba848b4ded2624fc884a933b95395796874a40c08d563f7ead8"),
    ('verify axioms --cases 5 --seed 1 --estimator-cases 1', 0,
     "2706d294d0d4f8c8a42b17ae17659c7aa71c2b4e2b2191df95c4954d841d73da"),
]


@pytest.mark.parametrize("command,exit_code,digest", PINNED, ids=[c for c, _, _ in PINNED])
def test_pinned_output(capsys, command, exit_code, digest):
    assert cli.main(shlex.split(command)) == exit_code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
