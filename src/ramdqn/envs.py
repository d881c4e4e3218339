"""Micro-game environments with Atari-style observations.

Every environment advances exactly one frame per step and is fully
deterministic given (seed, action sequence).  Like an Atari emulator, a
step returns only the reward and whether the episode ended; the 128-byte
RAM vector and the grayscale screen are drawn only when `observe` asks for
them, each by one routine per stream into a uint8 array that the caller
owns (`buffers` makes a set), as the ALE reads its screen into a caller's
buffer.  A game allocates no array to be observed.
Each documented RAM map holds game variables byte for byte, so that
RAM-only agents have something real to learn from.  A map need not hold
every variable: micro_diver's leaves out the diver's position (`diver_x`,
`diver_y`), which only the screen shows.
"""

from __future__ import annotations

import copy
import struct
from operator import mul

import numpy as np

RAM_SIZE = 128
_BYTE = np.dtype(np.uint8)


def scale_ram(raw):
    """Observation bytes (RAM or screen) as network inputs: float32 in
    [0, 255/256].  Scaling by a power of two is exact."""
    out = np.asarray(raw).astype(np.float32)  # a copy, scaled in place
    out *= np.float32(1 / 256)
    return out


def check_count(name, value, least=1):
    """Require `value` to be an int or numpy integer >= `least`; anything
    else, a bool too, raises ValueError naming it."""
    if type(value) is not int and not isinstance(value, np.integer) or value < least:
        rule = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise ValueError(f"{name} must be {rule}, got {value!r}")


class PhiBuffer:
    """Rolling window of the last `phi_length` screens as bytes, oldest
    first: `frames` is a (phi_length, H, W) uint8 view, and `stack` gives it
    as network inputs.  Each screen is copied into a kept array of
    2 * phi_length screens twice, phi_length apart, so the window is always
    one contiguous view and moving it allocates nothing.  A `phi_length`
    that `check_count` refuses raises ValueError."""

    def __init__(self, phi_length=4):
        check_count("phi_length", phi_length)
        self.phi_length = phi_length
        self.frames = None
        self._kept = None

    def reset(self, screen):
        n = self.phi_length
        if self._kept is None or self._kept.shape[1:] != np.shape(screen):
            self._kept = np.empty((2 * n,) + np.shape(screen), dtype=np.uint8)
        self._kept[...] = screen
        self._newest = n - 1
        self.frames = self._kept[n:]

    def stack(self):
        if self.frames is None:
            raise RuntimeError("PhiBuffer not initialized; call reset first")
        return scale_ram(self.frames)

    def observe(self, new_screen):
        """Move the window on by one screen; no network inputs are built."""
        if self.frames is None:
            raise RuntimeError("PhiBuffer not initialized; call reset first")
        n, i = self.phi_length, (self._newest + 1) % self.phi_length
        self._kept[i] = self._kept[i + n] = new_screen
        self._newest = i
        self.frames = self._kept[i + 1:i + 1 + n]


def _within(value, allowed):
    """Whether the int `value`, or each entry of a list of them, is in the range `allowed`."""
    if isinstance(value, list):
        return all(_within(v, allowed) for v in value)
    return isinstance(value, int) and value in allowed  # in a range, at once for an int


class MicroGame:
    """Base class: terminal bookkeeping, rng state plumbing, and the
    observation streams, drawn only when `observe` is called.  A game names
    the attributes that hold its state, once, in `state_vars`, each with the
    range of values that it, or each entry of it, can take.  It draws each
    stream with one routine into the caller's array: `_draw_ram(ram)` writes
    every byte, and `_draw_screen(screen)` draws onto the screen that
    `observe` has cleared."""

    name = ""
    action_count = 0
    screen_shape = (0, 0)
    state_vars = {}

    def __init__(self):
        self._rng = None
        self.terminal = True
        self._shapes = {"ram": (RAM_SIZE,), "screen": self.screen_shape}

    def reset(self, seed):
        self._rng = np.random.default_rng(seed)
        self.terminal = False
        self._reset_game()

    def step(self, action):
        """Advance one frame: (reward, terminal).  `action` is an int or a
        numpy integer in [0, action_count); anything else, a float or a bool
        too, raises ValueError."""
        if self.terminal:
            raise RuntimeError(f"{self.name}: stepping a terminated episode")
        if (type(action) is not int and not isinstance(action, np.integer)
                or not 0 <= action < self.action_count):
            raise ValueError(f"{self.name}: illegal action index {action!r}")
        return float(self._advance(action)), self.terminal

    def _shape(self, stream):
        shape = self._shapes.get(stream)
        if shape is None:
            raise ValueError(f"{self.name}: unknown observation stream {stream!r}")
        return shape

    def buffers(self, streams):
        """A zeroed uint8 array for each stream named in `streams` ("ram",
        "screen"), shaped as `observe` draws it: {stream: array}.  Another
        name raises ValueError."""
        return {s: np.zeros(self._shape(s), dtype=np.uint8) for s in streams}

    def observe(self, out):
        """Draw the current frame into the caller's arrays and return `out`:
        it maps each stream to draw ("ram", "screen") to a C-contiguous uint8
        array of that stream's shape, as `buffers` makes it, and every byte
        of each is written.  Another stream name, shape or dtype raises
        ValueError before anything is drawn."""
        for stream, buf in out.items():
            if buf.dtype != _BYTE or buf.shape != self._shape(stream):
                raise ValueError(f"{self.name}: {stream} buffer is {buf.dtype} {buf.shape}, "
                                 f"expected uint8 {self._shape(stream)}")
        for stream, buf in out.items():
            if stream == "ram":
                self._draw_ram(buf)
            else:
                buf.fill(0)
                self._draw_screen(buf)
        return out

    def get_state(self):
        """The game as JSON-ready values: a copy of each of `state_vars`,
        the terminal flag and the rng state."""
        return {
            "vars": {name: copy.deepcopy(getattr(self, name)) for name in self.state_vars},
            "terminal": self.terminal,
            "rng": self._rng.bit_generator.state,
        }

    def set_state(self, state):
        """Continue from a `get_state` result; nothing of it is shared.  A
        variable outside its range raises ValueError, changing nothing."""
        for name, allowed in self.state_vars.items():
            if not _within(state["vars"][name], allowed):
                raise ValueError(f"{self.name}: {name} {state['vars'][name]!r} not in {allowed}")
        self._rng = np.random.default_rng()
        self._rng.bit_generator.state = state["rng"]
        self.terminal = state["terminal"]
        for name in self.state_vars:
            setattr(self, name, copy.deepcopy(state["vars"][name]))


class MicroCatch(MicroGame):
    """Catch falling objects with a paddle on a 16x16 grid.

    Positions live in fine units (multiples of 16 spanning 0..240) so the RAM
    bytes cover most of the 0..255 range; one grid cell = 16 units.  The
    object falls one cell per frame from row 0 and spawns within five columns
    of the paddle, so a greedy chaser always reaches it.  The paddle is three
    columns wide (its RAM byte stores the center).  +1 per catch; the first
    miss ends the episode, as does the tenth catch (keeps the optimal episode
    score finite).

    RAM map: [0]=paddle x, [1]=object x, [2]=object y, [3]=score mod 256,
    [4]=frame counter mod 256, [5..127]=0.
    """

    name = "micro_catch"
    action_count = 3  # noop / left / right
    screen_shape = (16, 16)
    max_catches = 10
    spawn_window = 5  # columns either side of the paddle
    state_vars = {"paddle": range(0, 241, 16), "obj_x": range(0, 241, 16),
                  "obj_y": range(0, 241, 16), "score": range(256),
                  "frame": range(2**63), "catches": range(max_catches + 1)}

    def _reset_game(self):
        self.paddle = 7 * 16
        self.score = 0
        self.frame = 0
        self.catches = 0
        self._spawn()

    def _spawn(self):
        offset = int(self._rng.integers(-self.spawn_window, self.spawn_window + 1))
        self.obj_x = min(max(self.paddle + 16 * offset, 0), 240)
        self.obj_y = 0

    def _advance(self, action):
        if action == 1:
            self.paddle = max(self.paddle - 16, 0)
        elif action == 2:
            self.paddle = min(self.paddle + 16, 240)
        self.obj_y += 16
        reward = 0
        if self.obj_y == 240:
            if abs(self.obj_x - self.paddle) <= 16:  # paddle spans 3 columns
                reward = 1
                self.score = (self.score + 1) % 256
                self.catches += 1
                if self.catches >= self.max_catches:
                    self.terminal = True
                else:
                    self._spawn()
            else:
                self.terminal = True
        self.frame += 1
        return reward

    _ram_layout = struct.Struct(f"5B{RAM_SIZE - 5}x")  # pad bytes are written as 0

    def _draw_ram(self, ram):
        self._ram_layout.pack_into(ram, 0, self.paddle, self.obj_x, self.obj_y,
                                   self.score % 256, self.frame % 256)

    def _draw_screen(self, screen):
        screen[min(self.obj_y // 16, 15), self.obj_x // 16] = 128
        col = self.paddle // 16
        screen[15, max(col - 1, 0) : min(col + 1, 15) + 1] = 255


class MicroBreakout(MicroGame):
    """Single-ball brick breaker on a 20x16 grid.

    The ball sits on the paddle until fired; bricks occupy rows 2..4 and
    respawn once cleared.  Losing the ball past the paddle row ends the
    episode.  +1 per brick.

    RAM map: [0]=paddle x (center of a width-3 paddle), [1]=ball x,
    [2]=ball y, [3]=velocity code (0 = not launched, else
    1 + (dx>0) + 2*(dy>0)), [4..9]=brick bitmasks (two bytes per row,
    low columns first), [10]=score mod 256, [11..127]=0.
    """

    name = "micro_breakout"
    action_count = 4  # noop / fire / left / right
    screen_shape = (20, 16)
    brick_rows = (2, 3, 4)
    state_vars = {"paddle": range(1, 15), "ball_x": range(16), "ball_y": range(20),
                  "dx": range(-1, 2), "dy": range(-1, 2), "launched": range(2),
                  "score": range(256), "bricks": range(2)}

    def _reset_game(self):
        self.paddle = 8
        self.score = 0
        self.bricks = [[1] * 16 for _ in self.brick_rows]
        self._rack_ball()

    def _rack_ball(self):
        self.ball_x = self.paddle
        self.ball_y = 18
        self.dx = 0
        self.dy = 0
        self.launched = False

    def _advance(self, action):
        if action == 2:
            self.paddle = max(self.paddle - 1, 1)
        elif action == 3:
            self.paddle = min(self.paddle + 1, 14)

        reward = 0
        if not self.launched:
            self.ball_x = self.paddle
            if action == 1:
                self.launched = True
                self.dx = int(self._rng.choice((-1, 1)))
                self.dy = -1
            return 0

        self.ball_x += self.dx
        self.ball_y += self.dy
        if self.ball_x < 0:
            self.ball_x = 0
            self.dx = 1
        elif self.ball_x > 15:
            self.ball_x = 15
            self.dx = -1
        if self.ball_y < 0:
            self.ball_y = 0
            self.dy = 1

        if self.ball_y in self.brick_rows:
            row = self.brick_rows.index(self.ball_y)
            if self.bricks[row][self.ball_x]:
                self.bricks[row][self.ball_x] = 0
                reward = 1
                self.score = (self.score + 1) % 256
                self.dy = -self.dy
                if not any(any(r) for r in self.bricks):
                    self.bricks = [[1] * 16 for _ in self.brick_rows]

        if self.ball_y == 19:
            if abs(self.ball_x - self.paddle) <= 1:
                self.ball_y = 18
                self.dy = -1
            else:
                self.terminal = True
        return reward

    def _velocity_code(self):
        if not self.launched:
            return 0
        return 1 + (1 if self.dx > 0 else 0) + (2 if self.dy > 0 else 0)

    _ram_layout = struct.Struct(f"<4B3HB{RAM_SIZE - 11}x")  # H: a brick row, little-endian
    _bit_values = tuple(1 << c for c in range(16))

    def _draw_ram(self, ram):
        masks = [sum(map(mul, row, self._bit_values)) for row in self.bricks]
        self._ram_layout.pack_into(ram, 0, self.paddle, self.ball_x, self.ball_y,
                                   self._velocity_code(), *masks, self.score % 256)

    _brick_shade = bytes([0, 96]) + bytes(254)  # a translate table: brick present -> 96

    def _draw_screen(self, screen):
        pixels = screen.data.cast("B")  # a brick row is one row of 16 pixels
        for y, row in zip(self.brick_rows, self.bricks):
            pixels[16 * y:16 * y + 16] = bytes(row).translate(self._brick_shade)
        screen[19, self.paddle - 1 : self.paddle + 2] = 160
        screen[min(self.ball_y, 19), self.ball_x] = 255


class MicroDiver(MicroGame):
    """Submarine game on a 20x20 grid with an oxygen clock.

    Eight enemy slots patrol fixed rows (3, 5, ..., 17), drifting one column
    right per frame; firing destroys the enemy sharing the submarine's row
    (+1) and it respawns at a random column.  One diver is present at a time;
    moving onto it picks it up (up to 6 held).  Surfacing (row 0) with divers
    aboard scores +5 per diver and refills oxygen.  Oxygen drops one unit per
    frame; hitting 0 or colliding with an enemy ends the episode.

    RAM map: [0]=sub x, [1]=sub y, [2]=oxygen, [3]=divers held,
    [4]=score mod 256, [5..12]=enemy slots (column+1, 0 = empty),
    [13..127]=0.  The diver's position is not in RAM; only the screen shows it.
    """

    name = "micro_diver"
    action_count = 6  # noop / fire / up / down / left / right
    screen_shape = (20, 20)
    n_slots = 8
    slot_rows = tuple(range(3, 3 + 2 * n_slots, 2))  # the row each enemy slot patrols
    _slot_of_row = {row: slot for slot, row in enumerate(slot_rows)}
    _drift = tuple(range(1, 20)) + (0,)  # an enemy's next column: one right, wrapping
    max_divers = 6
    state_vars = {"sub_x": range(20), "sub_y": range(20), "oxygen": range(256),
                  "divers": range(max_divers + 1), "score": range(256),
                  "enemies": range(20), "diver_x": range(20), "diver_y": range(1, 20)}

    def _reset_game(self):
        self.sub_x = 10
        self.sub_y = 10
        self.oxygen = 255
        self.divers = 0
        self.score = 0
        # One call draws the columns in slot order, as one draw per slot would.
        self.enemies = self._rng.integers(0, 20, size=self.n_slots).tolist()
        self._spawn_diver()

    def _spawn_diver(self):
        self.diver_x = int(self._rng.integers(0, 20))
        self.diver_y = int(self._rng.integers(1, 20))

    def _advance(self, action):
        x, y = self.sub_x, self.sub_y
        if action == 2:
            y = max(y - 1, 0)
        elif action == 3:
            y = min(y + 1, 19)
        elif action == 4:
            x = max(x - 1, 0)
        elif action == 5:
            x = min(x + 1, 19)
        self.sub_x, self.sub_y = x, y

        reward = 0
        slot = self._slot_of_row.get(y)  # the enemy slot patrolling the sub's row
        enemies = self.enemies
        if action == 1 and slot is not None:
            reward += 1
            self.score = (self.score + 1) % 256
            enemies[slot] = int(self._rng.integers(0, 20))

        if x == self.diver_x and y == self.diver_y:
            if self.divers < self.max_divers:
                self.divers += 1
            self._spawn_diver()

        if y == 0 and self.divers > 0:
            delivered = 5 * self.divers
            reward += delivered
            self.score = (self.score + delivered) % 256
            self.divers = 0
            self.oxygen = 255

        drift = self._drift
        self.enemies = enemies = [drift[e] for e in enemies]
        if slot is not None and enemies[slot] == x:
            self.terminal = True

        self.oxygen -= 1
        if self.oxygen <= 0:
            self.oxygen = 0
            self.terminal = True
        return reward

    _ram_layout = struct.Struct(f"{5 + n_slots}B{RAM_SIZE - 5 - n_slots}x")

    def _draw_ram(self, ram):
        self._ram_layout.pack_into(ram, 0, self.sub_x, self.sub_y, self.oxygen, self.divers,
                                   self.score % 256, *[e + 1 for e in self.enemies])

    def _draw_screen(self, screen):
        screen[self.diver_y, self.diver_x] = 64
        for row, ex in zip(self.slot_rows, self.enemies):
            screen[row, ex] = 128
        screen[self.sub_y, self.sub_x] = 255


ENV_REGISTRY = {
    MicroCatch.name: MicroCatch,
    MicroBreakout.name: MicroBreakout,
    MicroDiver.name: MicroDiver,
}


def make_env(name):
    try:
        return ENV_REGISTRY[name]()
    except KeyError:
        raise ValueError(f"unknown environment {name!r}") from None


def frame_skip_step(env, action, k):
    """Repeat `action` for k frames (or until terminal): (summed reward,
    terminal).  The frames in between are never observed.  A `k` that
    `check_count` refuses raises ValueError."""
    check_count("frame_skip", k)
    total = 0.0
    for _ in range(k):
        reward, terminal = env.step(action)
        total += reward
        if terminal:
            break
    return total, terminal
